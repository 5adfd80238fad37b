//! Circuit intermediate representation: an ordered list of gate operations
//! with free (trainable) and bound (constant) parameters.
//!
//! A [`Circuit`] is built once and executed many times with different
//! parameter vectors — exactly the pattern of the paper's experiments,
//! where one ansatz is re-evaluated under six different initializations.
//!
//! Execution walks the op list in [`Sweep`]s — one per op, but one per
//! run of CZs, after a prologue for runs from `|0…0⟩` ([`crate::fuse`]).
//!
//! # Examples
//!
//! ```
//! use plateau_sim::{Circuit, Observable};
//!
//! // A 2-qubit, 1-layer slice of the paper's training ansatz (Eq. 3):
//! // RX, RY on every qubit, then a CZ chain.
//! let mut c = Circuit::new(2)?;
//! c.rx(0)?.ry(0)?.rx(1)?.ry(1)?.cz(0, 1)?;
//! assert_eq!(c.n_params(), 4);
//! assert_eq!(c.gate_count(), 5);
//!
//! // At all-zero angles every rotation is the identity, so the global cost
//! // C = 1 − p(|00⟩) is exactly zero.
//! let cost = Observable::global_cost(2);
//! let state = c.run(&[0.0; 4])?;
//! assert!(cost.expectation(&state)?.abs() < 1e-12);
//! # Ok::<(), plateau_sim::SimError>(())
//! ```

use crate::error::SimError;
use crate::fuse::{product_prologue, single_wire, CzLayer};
use crate::gate::{FixedGate, RotationGate, TwoQubitRotationGate};
use crate::state::{State, MAX_QUBITS};
use std::ops::Range;

/// A parameter slot of a rotation gate: either a trainable index into the
/// circuit's parameter vector, or a constant angle baked into the circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// Trainable parameter: index into the vector passed to
    /// [`Circuit::run`].
    Free(usize),
    /// Constant angle.
    Bound(f64),
}

impl Param {
    /// Resolves the angle against a parameter vector.
    #[inline]
    pub fn angle(self, params: &[f64]) -> f64 {
        match self {
            Param::Free(i) => params[i],
            Param::Bound(v) => v,
        }
    }

    /// The free-parameter index, if any.
    #[inline]
    pub fn free_index(self) -> Option<usize> {
        match self {
            Param::Free(i) => Some(i),
            Param::Bound(_) => None,
        }
    }
}

/// One operation in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A parameter-free gate on one or two qubits (first operand is the
    /// control for controlled gates).
    Fixed {
        /// The gate.
        gate: FixedGate,
        /// Operand qubits (length = gate arity).
        qubits: Vec<usize>,
    },
    /// A single-qubit rotation.
    Rotation {
        /// The rotation family.
        gate: RotationGate,
        /// Target qubit.
        qubit: usize,
        /// Angle source.
        param: Param,
    },
    /// A controlled single-qubit rotation.
    ControlledRotation {
        /// The rotation family.
        gate: RotationGate,
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
        /// Angle source.
        param: Param,
    },
    /// A two-qubit Pauli-product rotation (RXX/RYY/RZZ).
    TwoQubitRotation {
        /// The rotation family.
        gate: TwoQubitRotationGate,
        /// First operand (high bit of the composite basis index).
        first: usize,
        /// Second operand.
        second: usize,
        /// Angle source.
        param: Param,
    },
}

impl Op {
    /// Bumps the per-kind `sim.gate.*` application counter. One relaxed
    /// atomic load + branch when metrics are disabled.
    #[inline]
    pub(crate) fn count_application(&self) {
        match self {
            Op::Fixed { .. } => plateau_obs::counter!("sim.gate.fixed").inc(),
            Op::Rotation { .. } => plateau_obs::counter!("sim.gate.rotation").inc(),
            Op::ControlledRotation { .. } => {
                plateau_obs::counter!("sim.gate.controlled_rotation").inc()
            }
            Op::TwoQubitRotation { .. } => {
                plateau_obs::counter!("sim.gate.two_qubit_rotation").inc()
            }
        }
    }

    /// Applies the operation to a state.
    ///
    /// # Errors
    ///
    /// Propagates qubit-validity errors from the kernels.
    pub fn apply(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        self.count_application();
        match self {
            Op::Fixed { gate, qubits } => state.apply_fixed(*gate, qubits),
            Op::Rotation { gate, qubit, param } => {
                state.apply_rotation(*gate, *qubit, param.angle(params))
            }
            Op::ControlledRotation {
                gate,
                control,
                target,
                param,
            } => state.apply_controlled_rotation(*gate, *control, *target, param.angle(params)),
            Op::TwoQubitRotation {
                gate,
                first,
                second,
                param,
            } => state.apply_two_qubit_rotation(*gate, *first, *second, param.angle(params)),
        }
    }

    /// Applies the inverse of the operation to a state (used by the adjoint
    /// differentiation sweep).
    ///
    /// # Errors
    ///
    /// Propagates qubit-validity errors from the kernels.
    pub fn apply_inverse(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        plateau_obs::counter!("sim.gate.inverse_applications").inc();
        match self {
            Op::Fixed { gate, qubits } => {
                if let Some(inv) = gate.inverse() {
                    state.apply_fixed(inv, qubits)
                } else {
                    // √X and friends: apply the conjugate transpose directly.
                    debug_assert_eq!(gate.arity(), 1);
                    state.apply_single(qubits[0], &gate.inverse_entries())
                }
            }
            Op::Rotation { gate, qubit, param } => {
                state.apply_rotation(*gate, *qubit, -param.angle(params))
            }
            Op::ControlledRotation {
                gate,
                control,
                target,
                param,
            } => state.apply_controlled_rotation(*gate, *control, *target, -param.angle(params)),
            Op::TwoQubitRotation {
                gate,
                first,
                second,
                param,
            } => state.apply_two_qubit_rotation(*gate, *first, *second, -param.angle(params)),
        }
    }

    /// Applies `∂G/∂θ` (the derivative of the gate with respect to its own
    /// angle) to a state. Only meaningful for parameterized operations;
    /// returns an error for fixed gates.
    ///
    /// Note the result is **not** a normalized quantum state — it is the
    /// tangent vector used inside adjoint differentiation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongArity`] for fixed gates, and
    /// qubit-validity errors from the kernels.
    pub fn apply_derivative(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        plateau_obs::counter!("sim.gate.derivative_applications").inc();
        match self {
            Op::Fixed { gate, .. } => Err(SimError::WrongArity {
                gate: gate.to_string(),
                expected: 1,
                found: 0,
            }),
            Op::Rotation { gate, qubit, param } => {
                state.apply_single(*qubit, &gate.derivative_entries(param.angle(params)))
            }
            Op::ControlledRotation {
                gate,
                control,
                target,
                param,
            } => {
                // d/dθ [|0⟩⟨0|⊗I + |1⟩⟨1|⊗R(θ)] = |1⟩⟨1| ⊗ dR/dθ:
                // the control-0 block is annihilated, not preserved.
                state.project_qubit(*control, true)?;
                state.apply_controlled_single(
                    *control,
                    *target,
                    &gate.derivative_entries(param.angle(params)),
                )
            }
            Op::TwoQubitRotation {
                gate,
                first,
                second,
                param,
            } => state.apply_two(*first, *second, &gate.derivative_entries(param.angle(params))),
        }
    }

    /// The free-parameter index this op trains, if any.
    pub fn free_param(&self) -> Option<usize> {
        match self {
            Op::Fixed { .. } => None,
            Op::Rotation { param, .. }
            | Op::ControlledRotation { param, .. }
            | Op::TwoQubitRotation { param, .. } => param.free_index(),
        }
    }

    /// Operand qubits of the op, in order.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Op::Fixed { qubits, .. } => qubits.clone(),
            Op::Rotation { qubit, .. } => vec![*qubit],
            Op::ControlledRotation { control, target, .. } => vec![*control, *target],
            Op::TwoQubitRotation { first, second, .. } => vec![*first, *second],
        }
    }
}

/// One sweep of a walk over a circuit: an op, or a whole run of
/// consecutive CZs applied as one [`CzLayer`].
#[derive(Debug, Clone, Copy)]
pub enum Sweep<'c> {
    /// An op through its own kernel.
    Op(&'c Op),
    /// A run of CZs through the sign-table kernel.
    CzLayer(&'c CzLayer),
}

/// Each method is the op's own, or the CZ layer's one sweep (a layer is
/// its own inverse). Errors are the kernels'.
impl Sweep<'_> {
    /// Applies the sweep.
    pub fn apply(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Sweep::Op(op) => op.apply(state, params),
            Sweep::CzLayer(layer) => {
                plateau_obs::counter!("sim.gate.cz_layers").inc();
                plateau_obs::counter!("sim.gate.fixed").add(layer.gates() as u64);
                state.apply_cz_layer(layer)
            }
        }
    }

    /// Applies the sweep's inverse.
    pub fn apply_inverse(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Sweep::Op(op) => op.apply_inverse(state, params),
            Sweep::CzLayer(layer) => {
                plateau_obs::counter!("sim.gate.cz_layers").inc();
                plateau_obs::counter!("sim.gate.inverse_applications").add(layer.gates() as u64);
                state.apply_cz_layer(layer)
            }
        }
    }
}

/// A run of at least two consecutive CZs: its ops and its layer.
#[derive(Debug, Clone, PartialEq)]
struct CzRun {
    ops: Range<usize>,
    layer: CzLayer,
}

/// The sweeps over a range of a circuit's ops, as `(first op index,
/// sweep)`, from either end. A CZ run lying wholly inside the range is one
/// sweep; one the range cuts is walked op by op.
#[derive(Debug, Clone)]
pub struct Sweeps<'c> {
    ops: &'c [Op],
    runs: &'c [CzRun],
    range: Range<usize>,
}

impl<'c> Iterator for Sweeps<'c> {
    type Item = (usize, Sweep<'c>);

    fn next(&mut self) -> Option<Self::Item> {
        let k = self.range.start;
        if k >= self.range.end {
            return None;
        }
        match self.runs.first() {
            Some(run) if run.ops.start == k => {
                self.runs = &self.runs[1..];
                self.range.start = run.ops.end;
                Some((k, Sweep::CzLayer(&run.layer)))
            }
            _ => {
                self.range.start += 1;
                Some((k, Sweep::Op(&self.ops[k])))
            }
        }
    }
}

impl DoubleEndedIterator for Sweeps<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.range.start >= self.range.end {
            return None;
        }
        match self.runs.last() {
            Some(run) if run.ops.end == self.range.end => {
                self.runs = &self.runs[..self.runs.len() - 1];
                self.range.end = run.ops.start;
                Some((run.ops.start, Sweep::CzLayer(&run.layer)))
            }
            _ => {
                self.range.end -= 1;
                Some((self.range.end, Sweep::Op(&self.ops[self.range.end])))
            }
        }
    }
}

/// A quantum circuit: a fixed qubit count, an ordered op list, and a count
/// of free parameters.
///
/// Free parameters are allocated sequentially by the builder methods
/// ([`Circuit::rx`] etc.), so parameter index `k` belongs to the `k`-th
/// parameterized gate appended — which makes "the last parameter" of the
/// paper's variance analysis simply index `n_params − 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
    n_params: usize,
    /// Leading single-qubit ops: the product-state prologue.
    prologue: usize,
    /// Every maximal run of at least two consecutive CZs, in op order.
    cz_runs: Vec<CzRun>,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] when `n_qubits` is zero or
    /// exceeds [`MAX_QUBITS`].
    pub fn new(n_qubits: usize) -> Result<Circuit, SimError> {
        if n_qubits == 0 || n_qubits > MAX_QUBITS {
            return Err(SimError::QubitOutOfRange {
                qubit: n_qubits,
                n_qubits: MAX_QUBITS,
            });
        }
        Ok(Circuit {
            n_qubits,
            ops: Vec::new(),
            n_params: 0,
            prologue: 0,
            cz_runs: Vec::new(),
        })
    }

    /// Internal constructor for passes that rewrite the op list while
    /// preserving the parameter space (`n_params` stays authoritative even
    /// if some free indices are no longer referenced).
    pub(crate) fn from_parts(n_qubits: usize, ops: Vec<Op>, n_params: usize) -> Circuit {
        let mut c = Circuit {
            n_qubits,
            ops: Vec::with_capacity(ops.len()),
            n_params,
            prologue: 0,
            cz_runs: Vec::new(),
        };
        for op in ops {
            c.push_op(op);
        }
        c
    }

    /// Appends a validated op, extending the prologue or the CZ run it
    /// continues.
    #[inline(always)]
    fn push_op(&mut self, op: Op) {
        let k = self.ops.len();
        if self.prologue == k && single_wire(&op).is_some() {
            self.prologue += 1;
        }
        if let Op::Fixed { gate: FixedGate::Cz, qubits } = &op {
            let (a, b) = (qubits[0], qubits[1]);
            match (self.cz_runs.last_mut(), self.ops.last()) {
                (Some(run), _) if run.ops.end == k => {
                    run.layer.push(a, b);
                    run.ops.end += 1;
                }
                (_, Some(Op::Fixed { gate: FixedGate::Cz, qubits: prev })) => {
                    let mut layer = CzLayer::empty(self.n_qubits);
                    layer.push(prev[0], prev[1]);
                    layer.push(a, b);
                    self.cz_runs.push(CzRun { ops: k - 1..k + 1, layer });
                }
                _ => {}
            }
        }
        self.ops.push(op);
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of free (trainable) parameters.
    #[inline]
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Total gate count.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// Read-only view of the op list.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
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

    fn check_pair(&self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(SimError::DuplicateQubits { qubit: a });
        }
        Ok(())
    }

    /// Appends a fixed gate.
    ///
    /// # Errors
    ///
    /// Returns arity/qubit-validity errors.
    pub fn push_fixed(&mut self, gate: FixedGate, qubits: &[usize]) -> Result<&mut Self, SimError> {
        if qubits.len() != gate.arity() {
            return Err(SimError::WrongArity {
                gate: gate.to_string(),
                expected: gate.arity(),
                found: qubits.len(),
            });
        }
        match qubits {
            [q] => self.check_qubit(*q)?,
            [a, b] => self.check_pair(*a, *b)?,
            _ => unreachable!("arity is 1 or 2"),
        }
        self.push_op(Op::Fixed {
            gate,
            qubits: qubits.to_vec(),
        });
        Ok(self)
    }

    /// Appends a rotation gate bound to a **new** free parameter and
    /// returns the builder for chaining. The allocated parameter index is
    /// `n_params() - 1` immediately after the call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn push_rotation(
        &mut self,
        gate: RotationGate,
        qubit: usize,
    ) -> Result<&mut Self, SimError> {
        self.check_qubit(qubit)?;
        let param = Param::Free(self.n_params);
        self.n_params += 1;
        self.push_op(Op::Rotation { gate, qubit, param });
        Ok(self)
    }

    /// Appends a rotation gate with a constant angle (no trainable
    /// parameter).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn push_rotation_const(
        &mut self,
        gate: RotationGate,
        qubit: usize,
        angle: f64,
    ) -> Result<&mut Self, SimError> {
        self.check_qubit(qubit)?;
        self.push_op(Op::Rotation {
            gate,
            qubit,
            param: Param::Bound(angle),
        });
        Ok(self)
    }

    /// Appends a controlled rotation bound to a new free parameter.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn push_controlled_rotation(
        &mut self,
        gate: RotationGate,
        control: usize,
        target: usize,
    ) -> Result<&mut Self, SimError> {
        self.check_pair(control, target)?;
        let param = Param::Free(self.n_params);
        self.n_params += 1;
        self.push_op(Op::ControlledRotation {
            gate,
            control,
            target,
            param,
        });
        Ok(self)
    }

    /// Appends a two-qubit Pauli-product rotation bound to a new free
    /// parameter.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn push_two_qubit_rotation(
        &mut self,
        gate: TwoQubitRotationGate,
        first: usize,
        second: usize,
    ) -> Result<&mut Self, SimError> {
        self.check_pair(first, second)?;
        let param = Param::Free(self.n_params);
        self.n_params += 1;
        self.push_op(Op::TwoQubitRotation {
            gate,
            first,
            second,
            param,
        });
        Ok(self)
    }

    /// Converts the most recently appended parameterized op's **free**
    /// parameter into a bound constant angle, releasing its parameter slot
    /// (used by the QASM importer and by ansatz builders that freeze
    /// specific gates).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParamOutOfRange`] when the circuit is empty,
    /// the last op is not parameterized, or its parameter is already
    /// bound.
    pub fn bind_last_param(&mut self, angle: f64) -> Result<&mut Self, SimError> {
        let expected = self.n_params.checked_sub(1);
        let last = self.ops.last_mut();
        match (last, expected) {
            (Some(op), Some(idx)) if op.free_param() == Some(idx) => {
                match op {
                    Op::Rotation { param, .. }
                    | Op::ControlledRotation { param, .. }
                    | Op::TwoQubitRotation { param, .. } => *param = Param::Bound(angle),
                    Op::Fixed { .. } => unreachable!("free_param ruled this out"),
                }
                self.n_params = idx;
                Ok(self)
            }
            _ => Err(SimError::ParamOutOfRange {
                index: self.n_params,
                n_params: self.n_params,
            }),
        }
    }

    // --- convenience builders -------------------------------------------

    /// Appends a Hadamard.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn h(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::H, &[q])
    }

    /// Appends a Pauli-X.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn x(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::X, &[q])
    }

    /// Appends a Pauli-Y.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn y(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::Y, &[q])
    }

    /// Appends a Pauli-Z.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn z(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::Z, &[q])
    }

    /// Appends a trainable RX rotation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn rx(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_rotation(RotationGate::Rx, q)
    }

    /// Appends a trainable RY rotation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn ry(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_rotation(RotationGate::Ry, q)
    }

    /// Appends a trainable RZ rotation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for an invalid qubit.
    pub fn rz(&mut self, q: usize) -> Result<&mut Self, SimError> {
        self.push_rotation(RotationGate::Rz, q)
    }

    /// Appends a trainable RXX rotation.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn rxx(&mut self, a: usize, b: usize) -> Result<&mut Self, SimError> {
        self.push_two_qubit_rotation(TwoQubitRotationGate::Rxx, a, b)
    }

    /// Appends a trainable RYY rotation.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn ryy(&mut self, a: usize, b: usize) -> Result<&mut Self, SimError> {
        self.push_two_qubit_rotation(TwoQubitRotationGate::Ryy, a, b)
    }

    /// Appends a trainable RZZ rotation.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn rzz(&mut self, a: usize, b: usize) -> Result<&mut Self, SimError> {
        self.push_two_qubit_rotation(TwoQubitRotationGate::Rzz, a, b)
    }

    /// Appends a CZ gate.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn cz(&mut self, a: usize, b: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::Cz, &[a, b])
    }

    /// Appends a CNOT gate.
    ///
    /// # Errors
    ///
    /// Returns qubit-validity errors.
    pub fn cx(&mut self, control: usize, target: usize) -> Result<&mut Self, SimError> {
        self.push_fixed(FixedGate::Cx, &[control, target])
    }

    // --- execution --------------------------------------------------------

    /// Validates a parameter vector against the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on length mismatch.
    pub fn check_params(&self, params: &[f64]) -> Result<(), SimError> {
        if params.len() != self.n_params {
            return Err(SimError::WrongParamCount {
                expected: self.n_params,
                found: params.len(),
            });
        }
        Ok(())
    }

    fn check_width(&self, state: &State) -> Result<(), SimError> {
        if state.n_qubits() != self.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: 1 << self.n_qubits,
                found: state.dim(),
            });
        }
        Ok(())
    }

    /// Number of leading single-qubit ops, which a run from `|0…0⟩`
    /// builds as one product state.
    pub fn prologue_len(&self) -> usize {
        self.prologue
    }

    /// The sweeps over ops `range`, from either end (see [`Sweeps`]).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the op list.
    pub fn sweeps(&self, range: Range<usize>) -> Sweeps<'_> {
        assert!(range.end <= self.ops.len(), "sweep range past the op list");
        let first = self.cz_runs.partition_point(|r| r.ops.start < range.start);
        let last = self.cz_runs.partition_point(|r| r.ops.end <= range.end);
        Sweeps {
            ops: &self.ops,
            runs: &self.cz_runs[first..last.max(first)],
            range,
        }
    }

    /// Runs the circuit on `|0…0⟩` and returns the final state, starting
    /// with the product-state prologue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter-length mismatch.
    pub fn run(&self, params: &[f64]) -> Result<State, SimError> {
        self.check_params(params)?;
        let mut state = State::zero(self.n_qubits);
        let start = self.prologue_into(&mut state, params, self.ops.len());
        self.apply_range(&mut state, params, start..self.ops.len())?;
        Ok(state)
    }

    /// Runs ops `range` into `state`. From 0 it resets `state` to `|0…0⟩`
    /// in place and starts with the prologue when the range covers it
    /// ([`Circuit::run`] without the allocation); a later start continues
    /// a state holding ops `[0, start)`. A run split outside the prologue
    /// and the CZ runs repeats the whole run's bits — the prefix a
    /// parameter-shift sweep shares.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch or
    /// [`SimError::DimensionMismatch`] if the state width differs.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the op list.
    pub fn run_into(
        &self,
        state: &mut State,
        params: &[f64],
        range: Range<usize>,
    ) -> Result<(), SimError> {
        self.check_params(params)?;
        self.check_width(state)?;
        let mut start = range.start;
        if start == 0 {
            state.reset_zero();
            start = self.prologue_into(state, params, range.end);
        }
        self.apply_range(state, params, start..range.end)
    }

    /// Builds the prologue into `state`, which holds `|0…0⟩`, when a run
    /// to `end` reaches past it; returns the op the run continues from.
    fn prologue_into(&self, state: &mut State, params: &[f64], end: usize) -> usize {
        if end < self.prologue || self.prologue == 0 {
            return 0;
        }
        let ops = &self.ops[..self.prologue];
        product_prologue(self.n_qubits, ops, params, state.planes_mut());
        self.prologue
    }

    /// Applies ops `range` forward: ops one by one between the CZ runs
    /// inside the range, each run as its one layer sweep.
    fn apply_range(
        &self,
        state: &mut State,
        params: &[f64],
        range: Range<usize>,
    ) -> Result<(), SimError> {
        let mut k = range.start;
        for run in self.sweeps(range.clone()).runs {
            for op in &self.ops[k..run.ops.start] {
                op.apply(state, params)?;
            }
            Sweep::CzLayer(&run.layer).apply(state, params)?;
            k = run.ops.end;
        }
        for op in &self.ops[k..range.end] {
            op.apply(state, params)?;
        }
        Ok(())
    }

    /// Runs the circuit on an existing state in place (no prologue: the
    /// input is arbitrary).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter-length mismatch
    /// or [`SimError::DimensionMismatch`] when the state size differs.
    pub fn run_on(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        self.check_params(params)?;
        self.check_width(state)?;
        self.apply_range(state, params, 0..self.ops.len())
    }

    /// Runs the **inverse** circuit on an existing state in place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::run_on`].
    pub fn run_inverse_on(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        self.check_params(params)?;
        self.check_width(state)?;
        for (_, sweep) in self.sweeps(0..self.ops.len()).rev() {
            sweep.apply_inverse(state, params)?;
        }
        Ok(())
    }

    /// Appends all ops of `other` to this circuit, re-indexing `other`'s
    /// free parameters to follow this circuit's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] when qubit counts differ.
    pub fn extend_with(&mut self, other: &Circuit) -> Result<&mut Self, SimError> {
        if other.n_qubits != self.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: 1 << self.n_qubits,
                found: 1 << other.n_qubits,
            });
        }
        let offset = self.n_params;
        for op in &other.ops {
            let mut op = op.clone();
            if let Op::Rotation { param: Param::Free(i), .. }
            | Op::ControlledRotation { param: Param::Free(i), .. }
            | Op::TwoQubitRotation { param: Param::Free(i), .. } = &mut op
            {
                *i += offset;
            }
            self.push_op(op);
        }
        self.n_params += other.n_params;
        Ok(self)
    }

    /// Index of the op that owns free parameter `index`, or `None` when the
    /// index is unused (should not happen for builder-constructed circuits).
    pub fn op_of_param(&self, index: usize) -> Option<usize> {
        self.ops.iter().position(|op| op.free_param() == Some(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plateau_linalg::C64;
    use std::f64::consts::PI;

    #[test]
    fn builder_allocates_sequential_params() {
        let mut c = Circuit::new(3).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().rz(2).unwrap();
        assert_eq!(c.n_params(), 3);
        assert_eq!(c.ops()[0].free_param(), Some(0));
        assert_eq!(c.ops()[1].free_param(), Some(1));
        assert_eq!(c.ops()[2].free_param(), Some(2));
        assert_eq!(c.op_of_param(2), Some(2));
        assert_eq!(c.op_of_param(5), None);
    }

    #[test]
    fn const_rotations_do_not_allocate() {
        let mut c = Circuit::new(1).unwrap();
        c.push_rotation_const(RotationGate::Rx, 0, 0.5).unwrap();
        assert_eq!(c.n_params(), 0);
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn run_validates_param_count() {
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        assert!(matches!(
            c.run(&[]),
            Err(SimError::WrongParamCount { expected: 1, found: 0 })
        ));
        assert!(c.run(&[0.3]).is_ok());
    }

    #[test]
    fn identity_circuit_preserves_zero_state() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().cz(0, 1).unwrap();
        let s = c.run(&[0.0, 0.0]).unwrap();
        assert!((s.probability_all_zeros() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_run_undoes_forward_run() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap();
        c.rx(0).unwrap().ry(1).unwrap().rz(2).unwrap();
        c.cz(0, 1).unwrap().cz(1, 2).unwrap();
        c.push_fixed(FixedGate::Sx, &[1]).unwrap();
        c.push_fixed(FixedGate::T, &[2]).unwrap();
        let params = [0.4, -1.2, 2.2];
        let mut s = c.run(&params).unwrap();
        c.run_inverse_on(&mut s, &params).unwrap();
        assert!((s.probability_all_zeros() - 1.0).abs() < 1e-10);
        assert!(s.amplitude(0).approx_eq(C64::ONE, 1e-10));
    }

    #[test]
    fn extend_with_reindexes_params() {
        let mut a = Circuit::new(2).unwrap();
        a.rx(0).unwrap();
        let mut b = Circuit::new(2).unwrap();
        b.ry(1).unwrap();
        a.extend_with(&b).unwrap();
        assert_eq!(a.n_params(), 2);
        assert_eq!(a.ops()[1].free_param(), Some(1));

        let wrong = Circuit::new(3).unwrap();
        assert!(a.extend_with(&wrong).is_err());
    }

    #[test]
    fn run_on_rejects_wrong_state_size() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap();
        let mut s = State::zero(3);
        assert!(c.run_on(&mut s, &[0.1]).is_err());
    }

    #[test]
    fn builder_rejects_bad_qubits() {
        let mut c = Circuit::new(2).unwrap();
        assert!(c.rx(2).is_err());
        assert!(c.cz(0, 0).is_err());
        assert!(c.cz(0, 5).is_err());
        assert!(c.push_fixed(FixedGate::Cz, &[0]).is_err());
        assert!(Circuit::new(0).is_err());
        assert!(Circuit::new(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn x_gate_via_circuit() {
        let mut c = Circuit::new(1).unwrap();
        c.x(0).unwrap();
        let s = c.run(&[]).unwrap();
        assert!((s.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_pi_flips_through_circuit() {
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        let s = c.run(&[PI]).unwrap();
        assert!((s.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_rotation_builder() {
        let mut c = Circuit::new(2).unwrap();
        c.x(0).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 1).unwrap();
        assert_eq!(c.n_params(), 1);
        let s = c.run(&[PI]).unwrap();
        // control set, RY(π) maps target |0⟩ → |1⟩.
        assert!((s.probabilities()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn op_derivative_rejects_fixed_gate() {
        let op = Op::Fixed {
            gate: FixedGate::H,
            qubits: vec![0],
        };
        let mut s = State::zero(1);
        assert!(op.apply_derivative(&mut s, &[]).is_err());
    }

    #[test]
    fn op_qubits_lists_operands() {
        let op = Op::ControlledRotation {
            gate: RotationGate::Rz,
            control: 2,
            target: 0,
            param: Param::Bound(0.1),
        };
        assert_eq!(op.qubits(), vec![2, 0]);
    }

    #[test]
    fn param_resolution() {
        assert_eq!(Param::Free(1).angle(&[5.0, 7.0]), 7.0);
        assert_eq!(Param::Bound(2.5).angle(&[5.0]), 2.5);
        assert_eq!(Param::Free(0).free_index(), Some(0));
        assert_eq!(Param::Bound(0.0).free_index(), None);
    }

    #[test]
    fn paper_training_ansatz_gate_and_param_counts() {
        // Paper §IV-D: 10 qubits, 5 layers, RX+RY per qubit + CZ chain
        // → 145 gates, 100 parameters.
        let n = 10;
        let layers = 5;
        let mut c = Circuit::new(n).unwrap();
        for _ in 0..layers {
            for q in 0..n {
                c.rx(q).unwrap();
                c.ry(q).unwrap();
            }
            for q in 0..n - 1 {
                c.cz(q, q + 1).unwrap();
            }
        }
        assert_eq!(c.gate_count(), 145);
        assert_eq!(c.n_params(), 100);
    }
}
