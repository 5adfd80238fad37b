//! Circuit compiler: diagonal superkernels plus a product-state prologue.
//!
//! [`compile`] lowers a [`Circuit`] into a [`CompiledCircuit`] — a list of
//! [`Segment`]s of two kinds:
//!
//! * **Diagonal** — a run of ≥ 2 statically diagonal gates (Z/S/T
//!   families, CZ, bound RZ/Phase/RZZ and bound controlled RZ/Phase)
//!   collapsed into one precomputed `2^n` diagonal, applied as a single
//!   contiguous element-wise multiply. This is the whole-layer
//!   *superkernel* for the paper's entangling CZ chains; it only exists at
//!   `n ≤` [`SUPERKERNEL_MAX_QUBITS`].
//! * **Raw** — every other op, passed through verbatim to the ordinary
//!   per-gate kernels. A circuit with no diagonal run compiles to the
//!   identity transform (same op list, same dispatch path).
//!
//! No other op is merged. Multiplying gate matrices together (RX·RY into
//! one dense 2×2, or two wires into a 4×4) throws away the zero patterns
//! that [`State::apply_single`] picks its loop by, and measured slower
//! than the op list it replaced. A diagonal stays diagonal however many
//! gates it absorbs, so superkernels keep their one-multiply sweep.
//!
//! Runs from `|0…0⟩` ([`CompiledCircuit::run`]) additionally start with a
//! **product-state prologue**: the leading run of single-qubit `Raw`
//! segments maps `|0…0⟩` to a product state, built directly — each wire's
//! ops are folded into its `|0⟩` column in order, then the columns are
//! multiplied out by iterative doubling (two multiplies per amplitude for
//! the whole prefix instead of one full sweep per gate). For the paper's
//! ansatz this swallows the entire first rotation layer.
//!
//! Each segment owns at most one free parameter, so the adjoint sweep in
//! `plateau-grad` runs the same recurrence over segments as over ops.
//!
//! # Compile once, run many
//!
//! [`CompiledCircuit`] is parameter-independent: free parameters are
//! resolved at run time by the `Raw` ops, while diagonal superkernels —
//! which cost a `2^n` precompute — are built once at compile time from
//! bound angles only. Hot paths (batched expectations, gradient engines)
//! therefore compile once and sweep parameters many times; that contract
//! is what `plateau-grad`'s `BatchExecutor` builds on.
//!
//! # Pass ordering
//!
//! Compiling composes with [`crate::passes::simplify`] deterministically:
//! run `simplify` **first** (it cancels and merges ops, producing a
//! shorter op list), then `compile`. Compilation itself is a pure
//! function of the op list — compiling the same circuit twice yields
//! identical segments — and never reorders ops, so
//! `compile(&simplify(&c))` and `compile(&c)` agree to rounding on every
//! input state.
//!
//! # When callers compile
//!
//! Compiling costs one `2^n` precompute per superkernel. The execution
//! layers follow one fixed rule (stated in `plateau-grad`'s `engine`
//! module): a call that runs a circuit `O(k)` or `O(batch)` times
//! compiles first, and a call that runs it `O(1)` times walks the op
//! list. There is no knob.
//!
//! # Observability
//!
//! [`compile`] counts `sim.fuse.gates_in`, `sim.fuse.gates_out` and
//! `sim.fuse.superkernels`. Every superkernel application (forward or
//! inverse) bumps `sim.fuse.applications.diagonal`, and every
//! product-state prologue bumps `sim.fuse.applications.prologue`; `Raw`
//! segments bump the ordinary `sim.gate.*` counters, except the ones a
//! prologue folds — counters rather than spans, so a traced gradient pays
//! one relaxed atomic per kernel.

use crate::circuit::{Circuit, Op, Param};
use crate::error::SimError;
use crate::gate::{FixedGate, RotationGate, TwoQubitRotationGate};
use crate::state::State;
use plateau_linalg::C64;

/// Largest register for which whole-layer diagonal superkernels are
/// precomputed (the `2^n` diagonal must stay cache-resident to pay off).
pub const SUPERKERNEL_MAX_QUBITS: usize = 12;

/// Whether `op` is diagonal in the computational basis *at compile time*
/// (free parameters are excluded so the diagonal can be precomputed).
fn is_static_diagonal(op: &Op) -> bool {
    match op {
        Op::Fixed { gate, .. } => matches!(
            gate,
            FixedGate::Z
                | FixedGate::S
                | FixedGate::Sdg
                | FixedGate::T
                | FixedGate::Tdg
                | FixedGate::Cz
        ),
        Op::Rotation { gate, param, .. } | Op::ControlledRotation { gate, param, .. } => {
            matches!(gate, RotationGate::Rz | RotationGate::Phase)
                && matches!(param, Param::Bound(_))
        }
        Op::TwoQubitRotation { gate, param, .. } => {
            matches!(gate, TwoQubitRotationGate::Rzz) && matches!(param, Param::Bound(_))
        }
    }
}

/// Full-state sweeps a static diagonal op costs through its own kernel: a
/// CZ touches a quarter of the amplitudes, everything else at least one
/// full pass. A superkernel costs one sweep, so it only replaces runs
/// costing more than that — at least five CZs, or any run with a
/// non-CZ member.
fn raw_sweep_cost(op: &Op) -> f64 {
    match op {
        Op::Fixed {
            gate: FixedGate::Cz,
            ..
        } => 0.25,
        _ => 2.0,
    }
}

/// Multiplies `op`'s diagonal into `diag` (length `2^n`). Caller
/// guarantees [`is_static_diagonal`].
fn fold_diagonal(diag: &mut [C64], op: &Op) {
    match op {
        Op::Fixed { gate, qubits } => match gate {
            FixedGate::Cz => {
                let mask = (1usize << qubits[0]) | (1usize << qubits[1]);
                for (i, d) in diag.iter_mut().enumerate() {
                    if i & mask == mask {
                        *d = -*d;
                    }
                }
            }
            _ => {
                let [d0, _, _, d1] = gate.entries();
                let mask = 1usize << qubits[0];
                for (i, d) in diag.iter_mut().enumerate() {
                    *d = *d * if i & mask != 0 { d1 } else { d0 };
                }
            }
        },
        Op::Rotation { gate, qubit, param } => {
            let e = gate.entries(param.angle(&[]));
            let mask = 1usize << qubit;
            for (i, d) in diag.iter_mut().enumerate() {
                *d = *d * if i & mask != 0 { e[3] } else { e[0] };
            }
        }
        Op::ControlledRotation {
            gate,
            control,
            target,
            param,
        } => {
            let e = gate.entries(param.angle(&[]));
            let cmask = 1usize << control;
            let tmask = 1usize << target;
            for (i, d) in diag.iter_mut().enumerate() {
                if i & cmask != 0 {
                    *d = *d * if i & tmask != 0 { e[3] } else { e[0] };
                }
            }
        }
        Op::TwoQubitRotation {
            gate,
            first,
            second,
            param,
        } => {
            let e = gate.entries(param.angle(&[]));
            let fmask = 1usize << first;
            let smask = 1usize << second;
            for (i, d) in diag.iter_mut().enumerate() {
                let idx = (usize::from(i & fmask != 0) << 1) | usize::from(i & smask != 0);
                *d = *d * e[idx * 4 + idx];
            }
        }
    }
}

/// The wire of a single-qubit op, or `None` for an op on two qubits.
fn single_wire(op: &Op) -> Option<usize> {
    match op {
        Op::Fixed { gate, qubits } if gate.arity() == 1 => Some(qubits[0]),
        Op::Rotation { qubit, .. } => Some(*qubit),
        _ => None,
    }
}

/// 2×2 entries of a single-qubit op.
fn single_entries(op: &Op, params: &[f64]) -> [C64; 4] {
    match op {
        Op::Fixed { gate, .. } => gate.entries(),
        Op::Rotation { gate, param, .. } => gate.entries(param.angle(params)),
        _ => unreachable!("only single-qubit ops have 2×2 entries"),
    }
}

/// One execution unit of a [`CompiledCircuit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// An op dispatched through the ordinary per-gate kernels.
    Raw(Op),
    /// A diagonal superkernel: `≥ 2` statically diagonal ops collapsed
    /// into one precomputed `2^n` diagonal.
    Diagonal {
        /// The full-register diagonal, length `2^n`.
        diag: Vec<C64>,
        /// Constituent ops in application order.
        ops: Vec<Op>,
    },
}

impl Segment {
    /// Constituent ops in application order.
    pub fn ops(&self) -> &[Op] {
        match self {
            Segment::Raw(op) => std::slice::from_ref(op),
            Segment::Diagonal { ops, .. } => ops,
        }
    }

    /// The free parameter this segment reads, if any: a `Raw` op's own,
    /// never a superkernel's (it is built from bound angles only).
    pub fn free_param(&self) -> Option<usize> {
        match self {
            Segment::Raw(op) => op.free_param(),
            Segment::Diagonal { .. } => None,
        }
    }

    /// Applies the segment to `state`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the underlying state operations.
    pub fn apply(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Segment::Raw(op) => op.apply(state, params),
            Segment::Diagonal { diag, .. } => {
                plateau_obs::counter!("sim.fuse.applications.diagonal").inc();
                state.apply_diagonal(diag)
            }
        }
    }

    /// Applies the segment's inverse.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the underlying state operations.
    pub fn apply_inverse(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Segment::Raw(op) => op.apply_inverse(state, params),
            Segment::Diagonal { diag, .. } => {
                plateau_obs::counter!("sim.fuse.applications.diagonal").inc();
                state.apply_diagonal_conj(diag)
            }
        }
    }
}

/// A circuit lowered into segments. See the module docs for the
/// compile-once/run-many contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    n_qubits: usize,
    n_params: usize,
    segments: Vec<Segment>,
    gates_in: usize,
    /// Leading single-qubit `Raw` segments the `|0…0⟩` prologue folds.
    prologue: usize,
}

impl CompiledCircuit {
    /// Register width of the source circuit.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Free-parameter count of the source circuit.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The segments in application order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Gates in the source circuit.
    pub fn gates_in(&self) -> usize {
        self.gates_in
    }

    /// Execution units (the compression ratio is `gates_in / gates_out`).
    pub fn gates_out(&self) -> usize {
        self.segments.len()
    }

    /// Number of diagonal superkernels.
    pub fn superkernels(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Diagonal { .. }))
            .count()
    }

    /// Approximate heap footprint of the compiled form: segment slots plus
    /// each superkernel's ops and precomputed diagonal (`2^n` complex
    /// entries, the dominant term). Used for the `sim.fuse.compiled_bytes`
    /// gauge.
    pub fn approx_bytes(&self) -> usize {
        let diagonals: usize = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Diagonal { diag, ops } => {
                    ops.len() * std::mem::size_of::<Op>() + diag.len() * std::mem::size_of::<C64>()
                }
                Segment::Raw(_) => 0,
            })
            .sum();
        diagonals + self.segments.len() * std::mem::size_of::<Segment>()
    }

    /// Whether compilation was a no-op: every segment is a raw op, in
    /// source order.
    pub fn is_identity_transform(&self) -> bool {
        self.segments.iter().all(|s| matches!(s, Segment::Raw(_)))
    }

    /// Validates a parameter buffer against the source circuit's count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a length mismatch.
    pub fn check_params(&self, params: &[f64]) -> Result<(), SimError> {
        if params.len() != self.n_params {
            return Err(SimError::WrongParamCount {
                expected: self.n_params,
                found: params.len(),
            });
        }
        Ok(())
    }

    /// Runs the compiled circuit on `|0…0⟩`, starting with the
    /// product-state prologue (see the module docs). The general
    /// [`Self::run_on`] path has no prologue — arbitrary input states get
    /// the ordinary segment sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch.
    pub fn run(&self, params: &[f64]) -> Result<State, SimError> {
        self.check_params(params)?;
        let mut amps = vec![C64::ZERO; 1usize << self.n_qubits];
        self.product_prologue(&mut amps, params);
        let mut state = State::from_amplitudes_unnormalized(amps)?;
        for seg in &self.segments[self.prologue..] {
            seg.apply(&mut state, params)?;
        }
        Ok(state)
    }

    /// Number of leading segments the product-state prologue absorbs when
    /// a run starts from `|0…0⟩` (`0` when there is no prologue).
    pub fn prologue_len(&self) -> usize {
        self.prologue
    }

    /// Runs the first `end` segments on `|0…0⟩` **into** an existing
    /// state, resetting it in place first. With `end` = every segment this
    /// is [`CompiledCircuit::run`] without the allocation, with the same
    /// prologue, so the amplitudes are identical.
    ///
    /// For `end ≥ prologue_len()` the state holds exactly the bits a full
    /// run holds after its first `end` segments, so applying
    /// `segments()[end..]` afterwards reproduces the full run bit for bit
    /// — the prefix a parameter-shift sweep shares between a parameter's
    /// shifted evaluations. A shorter prefix skips the prologue, so its
    /// continuation agrees with a full run only to rounding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch or
    /// [`SimError::DimensionMismatch`] if the state width differs.
    ///
    /// # Panics
    ///
    /// Panics if `end` exceeds the segment count.
    pub fn run_prefix_into(
        &self,
        state: &mut State,
        params: &[f64],
        end: usize,
    ) -> Result<(), SimError> {
        self.check_params(params)?;
        self.check_width(state)?;
        state.reset_zero();
        let start = if end >= self.prologue {
            self.product_prologue(state.amps_mut(), params);
            self.prologue
        } else {
            0
        };
        for seg in &self.segments[start..end] {
            seg.apply(state, params)?;
        }
        Ok(())
    }

    /// Writes the product state of the prologue's segments into `amps`,
    /// which must be all-zero on entry: each wire's ops fold into its
    /// `|0⟩` column in application order, and the columns multiply out by
    /// iterative doubling. Shared by [`CompiledCircuit::run`] and
    /// [`CompiledCircuit::run_prefix_into`] so the two paths are
    /// arithmetically identical.
    fn product_prologue(&self, amps: &mut [C64], params: &[f64]) {
        amps[0] = C64::ONE;
        if self.prologue == 0 {
            return;
        }
        plateau_obs::counter!("sim.fuse.applications.prologue").inc();
        let mut len = 1usize;
        for wire in 0..self.n_qubits {
            // The wire's ops, found by a scan of the prologue rather than
            // a per-wire lookup table, so a run allocates nothing here.
            let mut column: Option<(C64, C64)> = None;
            for seg in &self.segments[..self.prologue] {
                let op = &seg.ops()[0];
                if single_wire(op) == Some(wire) {
                    let e = single_entries(op, params);
                    let (v0, v1) = column.unwrap_or((C64::ONE, C64::ZERO));
                    column = Some((e[0] * v0 + e[1] * v1, e[2] * v0 + e[3] * v1));
                }
            }
            if let Some((v0, v1)) = column {
                for i in 0..len {
                    let a = amps[i];
                    amps[i] = a * v0;
                    amps[i + len] = a * v1;
                }
            }
            // Wires the prologue leaves alone stay in |0⟩: the upper half
            // is already zero and the lower half is unscaled.
            len <<= 1;
        }
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

    /// Runs the compiled circuit on an existing state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch or
    /// [`SimError::DimensionMismatch`] if the state width differs.
    pub fn run_on(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        self.check_params(params)?;
        self.check_width(state)?;
        for seg in &self.segments {
            seg.apply(state, params)?;
        }
        Ok(())
    }
}

/// Compiles a circuit into segments. Pure and deterministic: the same
/// circuit always yields the same segment list.
///
/// Emits the `sim.fuse.gates_in`, `sim.fuse.gates_out`, and
/// `sim.fuse.superkernels` counters so the compression ratio is
/// observable.
pub fn compile(circuit: &Circuit) -> CompiledCircuit {
    let n = circuit.n_qubits();
    let ops = circuit.ops();
    let superkernels = (1..=SUPERKERNEL_MAX_QUBITS).contains(&n);
    let mut segments = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let run = if superkernels {
            ops[i..]
                .iter()
                .take_while(|op| is_static_diagonal(op))
                .count()
        } else {
            0
        };
        let run = &ops[i..i + run];
        if run.len() >= 2 && run.iter().map(raw_sweep_cost).sum::<f64>() > 1.0 {
            let mut diag = vec![C64::ONE; 1usize << n];
            for op in run {
                fold_diagonal(&mut diag, op);
            }
            segments.push(Segment::Diagonal {
                diag,
                ops: run.to_vec(),
            });
            i += run.len();
        } else {
            segments.push(Segment::Raw(ops[i].clone()));
            i += 1;
        }
    }
    let prologue = segments
        .iter()
        .take_while(|s| matches!(s, Segment::Raw(op) if single_wire(op).is_some()))
        .count();

    let compiled = CompiledCircuit {
        n_qubits: n,
        n_params: circuit.n_params(),
        segments,
        gates_in: ops.len(),
        prologue,
    };
    plateau_obs::counter!("sim.fuse.gates_in").add(compiled.gates_in as u64);
    plateau_obs::counter!("sim.fuse.gates_out").add(compiled.gates_out() as u64);
    plateau_obs::counter!("sim.fuse.superkernels").add(compiled.superkernels() as u64);
    plateau_obs::gauge!("sim.fuse.compiled_bytes").set(compiled.approx_bytes() as f64);
    compiled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::simplify;
    use crate::unitary::circuit_unitary;
    use plateau_linalg::CMatrix;
    use plateau_rng::check::{forall, DEFAULT_CASES};
    use plateau_rng::{prop_assert, prop_assert_eq, Rng};

    /// Dense unitary of a compiled circuit, built by running it on every
    /// basis state (independent of `circuit_unitary`'s embedding math).
    fn compiled_unitary(c: &CompiledCircuit, params: &[f64]) -> CMatrix {
        let dim = 1usize << c.n_qubits();
        CMatrix::from_fn(dim, dim, |r, col| {
            let mut s = State::basis(c.n_qubits(), col);
            c.run_on(&mut s, params).unwrap();
            s.amplitudes()[r]
        })
    }

    /// The paper's training layer: RX·RY per qubit, then the CZ chain.
    fn paper_circuit(n: usize, layers: usize) -> Circuit {
        let mut c = Circuit::new(n).unwrap();
        for _ in 0..layers {
            for q in 0..n {
                c.rx(q).unwrap().ry(q).unwrap();
            }
            for q in 0..n.saturating_sub(1) {
                c.cz(q, q + 1).unwrap();
            }
        }
        c
    }

    fn assert_states_close(a: &State, b: &State, tol: f64) {
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, tol), "{x} vs {y}");
        }
    }

    #[test]
    fn paper_ansatz_compresses_to_per_wire_blocks_and_layer_superkernels() {
        let n = 10;
        let layers = 5;
        let c = paper_circuit(n, layers);
        let compiled = compile(&c);
        assert_eq!(compiled.gates_in(), layers * (2 * n + n - 1));
        // Per layer: the 2n rotations stay raw, the CZ chain becomes one
        // diagonal superkernel; the first layer's rotations are the
        // product-state prologue.
        assert_eq!(compiled.gates_out(), layers * (2 * n + 1));
        assert_eq!(compiled.superkernels(), layers);
        assert_eq!(compiled.prologue_len(), 2 * n);

        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.03 * i as f64).collect();
        assert_states_close(
            &c.run(&params).unwrap(),
            &compiled.run(&params).unwrap(),
            1e-12,
        );
    }

    /// The prologue folds each wire's leading ops in application order,
    /// and `run_prefix_into` resumes a full run bit for bit at every cut
    /// past the prologue.
    #[test]
    fn prologue_folds_leading_single_qubit_ops_in_order() {
        let mut c = Circuit::new(3).unwrap();
        c.rx(0)
            .unwrap()
            .h(2)
            .unwrap()
            .ry(0)
            .unwrap()
            .rz(1)
            .unwrap()
            .x(2)
            .unwrap();
        c.cx(0, 1).unwrap().ry(1).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.prologue_len(), 5);
        assert!(compiled.is_identity_transform());
        let params = [0.7, -1.2, 0.4, 2.1];
        let full = compiled.run(&params).unwrap();
        assert_states_close(&c.run(&params).unwrap(), &full, 1e-12);
        for end in [5, 6, 7] {
            let mut s = State::zero(3);
            compiled.run_prefix_into(&mut s, &params, end).unwrap();
            for seg in &compiled.segments()[end..] {
                seg.apply(&mut s, &params).unwrap();
            }
            assert_eq!(s.amplitudes(), full.amplitudes(), "cut {end}");
        }
    }

    /// Property: `CompiledCircuit::run` (the product-prologue path)
    /// matches the gate-by-gate run from `|0…0⟩` on random circuits.
    #[test]
    fn fused_run_from_zero_matches_the_raw_run() {
        forall(
            0x9201,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(1..6usize);
                let n_ops = rng.gen_range(1..30usize);
                let mut c = Circuit::new(n).unwrap();
                for _ in 0..n_ops {
                    let q = rng.gen_range(0..n);
                    match rng.gen_range(0..7u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.rx(q).unwrap(),
                        2 => c.ry(q).unwrap(),
                        3 => c.rz(q).unwrap(),
                        4 => c.x(q).unwrap(),
                        5 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cz(q, p).unwrap()
                        }
                        6 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cx(q, p).unwrap()
                        }
                        _ => c.ry(q).unwrap(),
                    };
                }
                let params: Vec<f64> = (0..c.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                (c, params)
            },
            |(c, params)| {
                let raw = c.run(params).unwrap();
                let fused = compile(c).run(params).unwrap();
                for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
                    prop_assert!(a.approx_eq(*b, 1e-12), "{} vs {}", a, b);
                }
                Ok(())
            },
        );
    }

    /// Property: compiling any random circuit preserves the full unitary
    /// to 1e-12 (compares against the independent `circuit_unitary`
    /// oracle).
    #[test]
    fn fusion_preserves_the_circuit_unitary() {
        forall(
            0xf05e,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(1..5usize);
                let n_ops = rng.gen_range(1..25usize);
                let mut c = Circuit::new(n).unwrap();
                for _ in 0..n_ops {
                    let q = rng.gen_range(0..n);
                    match rng.gen_range(0..10u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.x(q).unwrap(),
                        2 => c.z(q).unwrap(),
                        3 => c.rx(q).unwrap(),
                        4 => c.ry(q).unwrap(),
                        5 => c.rz(q).unwrap(),
                        6 => c
                            .push_rotation_const(RotationGate::Rz, q, rng.gen_range(-3.0..3.0))
                            .unwrap(),
                        7 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cz(q, p).unwrap()
                        }
                        8 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.cx(q, p).unwrap()
                        }
                        9 if n >= 2 => {
                            let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                            c.push_two_qubit_rotation(TwoQubitRotationGate::Rzz, q, p)
                                .unwrap()
                        }
                        _ => c.ry(q).unwrap(),
                    };
                }
                let params: Vec<f64> = (0..c.n_params())
                    .map(|_| rng.gen_range(-3.0..3.0))
                    .collect();
                (c, params)
            },
            |(c, params)| {
                let compiled = compile(c);
                let flattened: Vec<Op> = compiled
                    .segments()
                    .iter()
                    .flat_map(|s| s.ops().to_vec())
                    .collect();
                prop_assert_eq!(&flattened, c.ops());
                let expected = circuit_unitary(c, params).unwrap();
                let got = compiled_unitary(&compiled, params);
                prop_assert!(
                    expected.max_abs_diff(&got) < 1e-12,
                    "unitary drift {}",
                    expected.max_abs_diff(&got)
                );
                Ok(())
            },
        );
    }

    /// Property: the diagonal superkernel equals gate-by-gate application
    /// at every width from 2 to 12 qubits.
    #[test]
    fn superkernel_matches_gate_by_gate_at_2_to_12_qubits() {
        for n in 2..=12usize {
            let mut c = Circuit::new(n).unwrap();
            // Non-diagonal prologue so the superkernel sees a dense state.
            for q in 0..n {
                c.h(q).unwrap();
            }
            // A long statically diagonal run: the CZ chain plus scattered
            // phase-family gates and bound RZ/RZZ.
            for q in 0..n - 1 {
                c.cz(q, q + 1).unwrap();
            }
            c.z(0).unwrap();
            c.push_fixed(FixedGate::S, &[n / 2]).unwrap();
            c.push_fixed(FixedGate::T, &[n - 1]).unwrap();
            c.push_rotation_const(RotationGate::Rz, 0, 0.37).unwrap();
            c.push_rotation_const(RotationGate::Phase, n - 1, -1.1)
                .unwrap();
            c.push_two_qubit_rotation(TwoQubitRotationGate::Rzz, 0, n - 1)
                .unwrap();
            c.bind_last_param(0.81).unwrap();

            let compiled = compile(&c);
            assert!(
                compiled.superkernels() >= 1,
                "n={n}: expected a diagonal superkernel, got {:?}",
                compiled.segments().len()
            );
            let raw = c.run(&[]).unwrap();
            let fused = compiled.run(&[]).unwrap();
            for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-12), "n={n}: {a} vs {b}");
            }
        }
    }

    /// Property: a circuit without a run of static diagonal ops compiles
    /// to the identity transform — all-raw segments, same op list.
    #[test]
    fn unmergeable_circuits_compile_to_the_identity_transform() {
        forall(
            0x1d37,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(2..9usize);
                let mut c = Circuit::new(n).unwrap();
                // Non-diagonal gates, with at most one diagonal op
                // (a lone CZ) between them.
                for _ in 0..rng.gen_range(1..20usize) {
                    let q = rng.gen_range(0..n);
                    let p = (q + 1 + rng.gen_range(0..n - 1)) % n;
                    match rng.gen_range(0..6u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.x(q).unwrap(),
                        2 => c.rx(q).unwrap(),
                        3 => c.ry(q).unwrap(),
                        4 => c.cx(q, p).unwrap(),
                        _ => c.cz(q, p).unwrap().h(q).unwrap(),
                    };
                }
                c
            },
            |c| {
                let compiled = compile(c);
                prop_assert!(compiled.is_identity_transform());
                prop_assert_eq!(compiled.gates_out(), c.gate_count());
                let ops: Vec<Op> = compiled
                    .segments()
                    .iter()
                    .map(|s| s.ops()[0].clone())
                    .collect();
                prop_assert_eq!(&ops, c.ops());
                Ok(())
            },
        );
    }

    #[test]
    fn compilation_is_deterministic() {
        let c = paper_circuit(6, 3);
        assert_eq!(compile(&c), compile(&c));
    }

    /// `simplify` then `compile` is the documented pass order; both the
    /// simplified and unsimplified pipelines agree with the raw run.
    #[test]
    fn simplify_then_fuse_composes_deterministically() {
        let mut c = Circuit::new(3).unwrap();
        c.x(0).unwrap().x(0).unwrap(); // cancels under simplify
        c.rx(0).unwrap().ry(0).unwrap();
        c.h(1).unwrap();
        c.cz(0, 1).unwrap();
        c.cz(1, 2).unwrap();
        c.rz(2).unwrap();
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.4 + 0.2 * i as f64).collect();

        let simplified = simplify(&c);
        let a = compile(&simplified);
        let b = compile(&c);
        // Deterministic on each input…
        assert_eq!(a, compile(&simplify(&c)));
        assert_eq!(b, compile(&c));
        // …simplify-first never produces more segments…
        assert!(a.gates_out() <= b.gates_out());
        // …and both pipelines agree with the raw run.
        let raw = c.run(&params).unwrap();
        for fused in [a.run(&params).unwrap(), b.run(&params).unwrap()] {
            assert_states_close(&raw, &fused, 1e-12);
        }
    }

    #[test]
    fn segment_inverse_round_trips() {
        let c = paper_circuit(4, 2);
        let params: Vec<f64> = (0..c.n_params()).map(|i| (i as f64).sin()).collect();
        let compiled = compile(&c);
        let mut s = c.run(&params).unwrap();
        for seg in compiled.segments().iter().rev() {
            seg.apply_inverse(&mut s, &params).unwrap();
        }
        assert_states_close(&s, &State::zero(4), 1e-12);
    }

    #[test]
    fn run_on_validates_params_and_width() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap();
        let compiled = compile(&c);
        assert!(matches!(
            compiled.run(&[]),
            Err(SimError::WrongParamCount {
                expected: 1,
                found: 0
            })
        ));
        let mut wrong = State::zero(3);
        assert!(matches!(
            compiled.run_on(&mut wrong, &[0.2]),
            Err(SimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn short_diagonal_runs_stay_raw() {
        // Two adjacent CZs cost 0.5 sweeps raw — cheaper than a 1.0-sweep
        // diagonal multiply, so they stay raw.
        let mut c = Circuit::new(4).unwrap();
        c.cz(0, 1).unwrap().cz(2, 3).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.superkernels(), 0);
        assert!(compiled.is_identity_transform());
    }

    #[test]
    fn big_registers_skip_superkernels_but_still_merge_wires() {
        let n = SUPERKERNEL_MAX_QUBITS + 1;
        let c = paper_circuit(n, 1);
        let compiled = compile(&c);
        assert_eq!(compiled.superkernels(), 0);
        // The CZ chain stays raw; each wire's RX·RY run still merges into
        // its product-state column.
        assert!(compiled.is_identity_transform());
        assert_eq!(compiled.prologue_len(), 2 * n);
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.4 + 0.031 * i as f64).collect();
        assert_states_close(
            &c.run(&params).unwrap(),
            &compiled.run(&params).unwrap(),
            1e-12,
        );
    }
}
