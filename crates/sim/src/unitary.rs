//! Full-unitary construction: an **independent oracle** for the statevector
//! kernels.
//!
//! [`circuit_unitary`] builds the dense `2^n × 2^n` matrix of a circuit by
//! embedding each op's 2×2/4×4 matrix with explicit index arithmetic and
//! multiplying the embeddings together. It deliberately shares *no code*
//! with the [`crate::state`] kernels, so agreement between
//! `circuit.run(params)` and `circuit_unitary(...) · |0…0⟩` is a genuine
//! cross-check (used heavily by the integration tests).
//!
//! Exponentially expensive — keep it to ≤ ~10 qubits.
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{circuit_unitary, Circuit};
//!
//! let mut c = Circuit::new(2)?;
//! c.h(0)?.cx(0, 1)?;
//! let u = circuit_unitary(&c, &[])?;
//! assert!(u.is_unitary(1e-12));
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::circuit::{Circuit, Op};
use crate::error::SimError;
use plateau_linalg::{CMatrix, C64};

/// Embeds a single-qubit matrix acting on `qubit` into the full register.
fn embed_single(n_qubits: usize, qubit: usize, m: &CMatrix) -> CMatrix {
    let dim = 1usize << n_qubits;
    let mask = 1usize << qubit;
    let mut out = CMatrix::zeros(dim, dim);
    for col in 0..dim {
        let bit = usize::from(col & mask != 0);
        for row_bit in 0..2usize {
            let row = (col & !mask) | (row_bit << qubit);
            let v = m[(row_bit, bit)];
            if v != C64::ZERO {
                out[(row, col)] += v;
            }
        }
    }
    out
}

/// Embeds a two-qubit matrix whose composite index is `(first, second)` with
/// `first` as the high bit, acting on arbitrary (possibly non-adjacent)
/// qubits.
fn embed_two(n_qubits: usize, first: usize, second: usize, m: &CMatrix) -> CMatrix {
    let dim = 1usize << n_qubits;
    let m_first = 1usize << first;
    let m_second = 1usize << second;
    let rest_mask = !(m_first | m_second);
    let mut out = CMatrix::zeros(dim, dim);
    for col in 0..dim {
        let col_idx = (usize::from(col & m_first != 0) << 1) | usize::from(col & m_second != 0);
        for row_idx in 0..4usize {
            let v = m[(row_idx, col_idx)];
            if v == C64::ZERO {
                continue;
            }
            let hi = (row_idx >> 1) & 1;
            let lo = row_idx & 1;
            let row = (col & rest_mask) | (hi * m_first) | (lo * m_second);
            out[(row, col)] += v;
        }
    }
    out
}

/// Dense matrix of one op at the given parameters.
///
/// # Errors
///
/// Returns [`SimError::ParamOutOfRange`] if the op references a free
/// parameter beyond `params`.
pub fn op_matrix(op: &Op, n_qubits: usize, params: &[f64]) -> Result<CMatrix, SimError> {
    let resolve = |p: crate::circuit::Param| -> Result<f64, SimError> {
        match p {
            crate::circuit::Param::Free(i) if i >= params.len() => Err(SimError::ParamOutOfRange {
                index: i,
                n_params: params.len(),
            }),
            other => Ok(other.angle(params)),
        }
    };
    Ok(match op {
        Op::Fixed { gate, qubits } => {
            let m = gate.matrix();
            if gate.arity() == 1 {
                embed_single(n_qubits, qubits[0], &m)
            } else {
                embed_two(n_qubits, qubits[0], qubits[1], &m)
            }
        }
        Op::Rotation { gate, qubit, param } => {
            embed_single(n_qubits, *qubit, &gate.matrix(resolve(*param)?))
        }
        Op::ControlledRotation {
            gate,
            control,
            target,
            param,
        } => {
            // Build the 4×4 controlled matrix with control as the high bit.
            let r = gate.matrix(resolve(*param)?);
            let o = C64::ZERO;
            let l = C64::ONE;
            let cm = CMatrix::from_rows(&[
                &[l, o, o, o],
                &[o, l, o, o],
                &[o, o, r[(0, 0)], r[(0, 1)]],
                &[o, o, r[(1, 0)], r[(1, 1)]],
            ]);
            embed_two(n_qubits, *control, *target, &cm)
        }
        Op::TwoQubitRotation {
            gate,
            first,
            second,
            param,
        } => embed_two(n_qubits, *first, *second, &gate.matrix(resolve(*param)?)),
    })
}

/// Full `2^n × 2^n` unitary of the circuit at the given parameters.
///
/// # Errors
///
/// Returns [`SimError::WrongParamCount`] on a parameter-length mismatch.
pub fn circuit_unitary(circuit: &Circuit, params: &[f64]) -> Result<CMatrix, SimError> {
    circuit.check_params(params)?;
    let dim = 1usize << circuit.n_qubits();
    let mut u = CMatrix::identity(dim);
    for op in circuit.ops() {
        let m = op_matrix(op, circuit.n_qubits(), params)?;
        u = &m * &u;
    }
    Ok(u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{FixedGate, RotationGate};
    use crate::state::State;

    const TOL: f64 = 1e-10;

    #[test]
    fn embed_single_x_on_each_qubit() {
        for q in 0..3 {
            let x = FixedGate::X.matrix();
            let full = embed_single(3, q, &x);
            assert!(full.is_unitary(TOL));
            // Column 0 should map |000⟩ → |2^q⟩.
            assert!(full[(1 << q, 0)].approx_eq(C64::ONE, TOL));
        }
    }

    #[test]
    fn embed_two_matches_kron_for_adjacent_qubits() {
        use plateau_linalg::CMatrix;
        // CZ on qubits (1,0) of a 2-qubit register is just the 4×4 CZ.
        let cz = FixedGate::Cz.matrix();
        let full = embed_two(2, 1, 0, &cz);
        assert!(full.approx_eq(&cz, TOL));
        // X on qubit 0 with identity on qubit 1 via embed_single equals I⊗X.
        let ix = CMatrix::identity(2).kron(&FixedGate::X.matrix());
        assert!(embed_single(2, 0, &FixedGate::X.matrix()).approx_eq(&ix, TOL));
    }

    #[test]
    fn circuit_unitary_is_unitary() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap().rx(1).unwrap().cz(0, 2).unwrap().ry(2).unwrap();
        let u = circuit_unitary(&c, &[0.7, -0.4]).unwrap();
        assert!(u.is_unitary(TOL));
    }

    #[test]
    fn unitary_oracle_matches_kernels_on_random_circuit() {
        // Deterministic pseudo-random circuit over 4 qubits.
        let mut c = Circuit::new(4).unwrap();
        let mut angle = 0.3;
        for layer in 0..3 {
            for q in 0..4 {
                match (layer + q) % 3 {
                    0 => c.rx(q).unwrap(),
                    1 => c.ry(q).unwrap(),
                    _ => c.rz(q).unwrap(),
                };
            }
            for q in 0..3 {
                c.cz(q, q + 1).unwrap();
            }
            angle += 0.1;
        }
        let params: Vec<f64> = (0..c.n_params())
            .map(|i| angle * (i as f64 + 1.0) * 0.37)
            .collect();

        let via_kernel = c.run(&params).unwrap();
        let u = circuit_unitary(&c, &params).unwrap();
        let mut via_unitary = State::zero(4);
        via_unitary.apply_matrix(&u).unwrap();

        for (a, b) in via_kernel.to_amplitudes().iter().zip(&via_unitary.to_amplitudes()) {
            assert!(a.approx_eq(*b, TOL), "{a} vs {b}");
        }
    }

    #[test]
    fn non_adjacent_two_qubit_embedding() {
        // CX with control 0, target 2 in a 3-qubit register.
        let mut c = Circuit::new(3).unwrap();
        c.x(0).unwrap().cx(0, 2).unwrap();
        let via_kernel = c.run(&[]).unwrap();
        let u = circuit_unitary(&c, &[]).unwrap();
        let mut via_unitary = State::zero(3);
        via_unitary.apply_matrix(&u).unwrap();
        assert!((via_kernel.fidelity(&via_unitary).unwrap() - 1.0).abs() < TOL);
        // End state should be |101⟩ = index 5.
        assert!((via_kernel.probabilities()[5] - 1.0).abs() < TOL);
    }

    #[test]
    fn controlled_rotation_unitary() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap();
        c.push_controlled_rotation(RotationGate::Rz, 0, 1).unwrap();
        let params = [1.3];
        let via_kernel = c.run(&params).unwrap();
        let u = circuit_unitary(&c, &params).unwrap();
        assert!(u.is_unitary(TOL));
        let mut via_unitary = State::zero(2);
        via_unitary.apply_matrix(&u).unwrap();
        assert!((via_kernel.fidelity(&via_unitary).unwrap() - 1.0).abs() < TOL);
    }

    #[test]
    fn op_matrix_rejects_missing_param() {
        let op = Op::Rotation {
            gate: RotationGate::Rx,
            qubit: 0,
            param: crate::circuit::Param::Free(3),
        };
        assert!(matches!(
            op_matrix(&op, 1, &[0.1]),
            Err(SimError::ParamOutOfRange { index: 3, .. })
        ));
    }

    #[test]
    fn unitary_checks_param_count() {
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        assert!(circuit_unitary(&c, &[]).is_err());
    }
}
