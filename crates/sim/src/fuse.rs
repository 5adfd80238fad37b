//! Gate-fusion compiler: collapses runs of adjacent gates into merged
//! kernels so the paper's small-`n` workloads do less memory traffic.
//!
//! [`compile`] lowers a [`Circuit`] into a [`CompiledCircuit`] — a list of
//! [`Segment`]s, each applied to the statevector in one sweep:
//!
//! * **Single** — a run of single-qubit gates on one wire, merged into a
//!   single 2×2 unitary (product taken once per run, applied in one
//!   stride-1 sweep instead of one sweep per gate).
//! * **Pair** — adjacent two-qubit (and absorbed single-qubit) gates on
//!   the same qubit pair, merged into one 4×4 block when the cost model
//!   says the dense block beats applying the pieces separately. On
//!   registers wider than [`SUPERKERNEL_MAX_QUBITS`] — where sweeps are
//!   memory-bound rather than ALU-bound — a final post-pass also
//!   tensor-pairs adjacent *Single* runs on distinct wires into one 4×4
//!   sweep: same complex multiplies per amplitude, half the state
//!   traffic.
//! * **Diagonal** — a run of ≥ 2 statically diagonal gates (Z/S/T
//!   families, CZ, bound RZ/Phase/RZZ) collapsed into one precomputed
//!   `2^n` diagonal, applied as a single contiguous element-wise multiply.
//!   This is the whole-layer *superkernel* for the paper's entangling CZ
//!   chains; it only exists at `n ≤` [`SUPERKERNEL_MAX_QUBITS`].
//! * **Raw** — everything that doesn't merge is passed through verbatim,
//!   so a circuit with zero mergeable runs compiles to the identity
//!   transform (same op list, same dispatch path).
//!
//! Merging is *frontier-based*: an op may join an open group on its wires
//! as long as no intervening op touched those wires, which only commutes
//! ops acting on disjoint qubits — the compiled circuit is exactly
//! unitary-equivalent to the source (see the `forall` properties below).
//!
//! Runs from `|0…0⟩` ([`CompiledCircuit::run`]) additionally absorb a
//! leading prefix of per-wire `Single` runs into a direct product-state
//! build — two multiplies per amplitude for the whole prefix instead of
//! one full sweep per wire, which swallows the paper ansatz's entire
//! first rotation layer.
//!
//! # Compile once, run many
//!
//! [`CompiledCircuit`] is parameter-independent: free parameters are
//! resolved at [`CompiledCircuit::run_on`] time by re-merging the (tiny)
//! 2×2/4×4 matrices, while diagonal superkernels — which cost a `2^n`
//! precompute — are built once at compile time from bound angles only.
//! Hot paths (batched expectations, gradient engines) should therefore
//! compile once and sweep parameters many times; that contract is what
//! `plateau-grad`'s `BatchExecutor` builds on.
//!
//! # Pass ordering
//!
//! Fusion composes with [`crate::passes::simplify`] deterministically:
//! run `simplify` **first** (it cancels and merges ops, producing a
//! shorter op list), then `compile`. Compilation itself is a pure
//! function of the op list — compiling the same circuit twice yields
//! identical segments — and never reorders non-commuting ops, so
//! `compile(&simplify(&c))` and `compile(&c)` agree to rounding on every
//! input state.
//!
//! # When callers compile
//!
//! Compiling is not free: it merges every run's matrices and precomputes
//! each superkernel's `2^n` diagonal. At q = 10 on a 2-vCPU host a
//! compile costs about 40 µs for the paper's 5-layer training circuit and
//! about 540 µs for a 50-layer Fig 5a member — more than a third of one
//! adjoint partial of that member on the op list (1.3 ms). So the
//! execution layers follow one fixed rule (stated in `plateau-grad`'s
//! `engine` module): a call that runs a circuit `O(k)` or `O(batch)`
//! times compiles first, and a call that runs it `O(1)` times walks the
//! op list. There is no knob.
//!
//! # Observability
//!
//! [`compile`] counts `sim.fuse.gates_in`, `sim.fuse.gates_out` and
//! `sim.fuse.superkernels`. Every fused kernel application (forward or
//! inverse) bumps `sim.fuse.applications.{single,pair,diagonal}`, and
//! every product-state prologue bumps `sim.fuse.applications.prologue` —
//! counters rather than spans, the way the raw kernels bump `sim.gate.*`,
//! so a traced gradient pays one relaxed atomic per kernel.

use crate::circuit::{Circuit, Op, Param};
use crate::error::SimError;
use crate::gate::{FixedGate, RotationGate};
use crate::state::State;
use plateau_linalg::C64;

/// Largest register for which whole-layer diagonal superkernels are
/// precomputed (the `2^n` diagonal must stay cache-resident to pay off).
pub const SUPERKERNEL_MAX_QUBITS: usize = 12;

// ---------------------------------------------------------------------------
// Cost model (complex multiplies per amplitude, i.e. full-state sweeps
// weighted by how much of the state each kernel touches).
// ---------------------------------------------------------------------------

/// One element-wise diagonal multiply over the full state.
const DIAG_SWEEP_COST: f64 = 1.0;
/// One merged 2×2 applied to every amplitude pair.
const SINGLE_BLOCK_COST: f64 = 2.0;
/// One dense 4×4 applied to every amplitude quad.
const PAIR_BLOCK_COST: f64 = 4.0;

/// Sweep cost of applying `op` through the raw per-gate kernels.
fn op_cost(op: &Op) -> f64 {
    match op {
        Op::Fixed { gate, .. } => match gate {
            FixedGate::Cz => 0.25,
            FixedGate::Swap => 0.5,
            FixedGate::Cx | FixedGate::Cy => 1.0,
            _ => SINGLE_BLOCK_COST,
        },
        Op::Rotation { .. } => SINGLE_BLOCK_COST,
        Op::ControlledRotation { .. } => 1.0,
        Op::TwoQubitRotation { .. } => PAIR_BLOCK_COST,
    }
}

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
        Op::Rotation { gate, param, .. } => {
            matches!(gate, RotationGate::Rz | RotationGate::Phase)
                && matches!(param, Param::Bound(_))
        }
        Op::ControlledRotation { gate, param, .. } => {
            matches!(gate, RotationGate::Rz | RotationGate::Phase)
                && matches!(param, Param::Bound(_))
        }
        Op::TwoQubitRotation { gate, param, .. } => {
            matches!(gate, crate::gate::TwoQubitRotationGate::Rzz)
                && matches!(param, Param::Bound(_))
        }
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
                let m = gate.matrix();
                let (d0, d1) = (m[(0, 0)], m[(1, 1)]);
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

// ---------------------------------------------------------------------------
// Small-matrix algebra (2×2 and 4×4 row-major, |hi,lo⟩ basis for 4×4).
// ---------------------------------------------------------------------------

const ID2: [C64; 4] = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];

/// `a · b` for row-major 2×2 matrices.
fn mat2_mul(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

fn mat2_dagger(m: &[C64; 4]) -> [C64; 4] {
    [m[0].conj(), m[2].conj(), m[1].conj(), m[3].conj()]
}

/// `a · b` for row-major 4×4 matrices.
fn mat4_mul(a: &[C64; 16], b: &[C64; 16]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for k in 0..4 {
            let v = a[r * 4 + k];
            if v == C64::ZERO {
                continue;
            }
            for c in 0..4 {
                out[r * 4 + c] = out[r * 4 + c] + v * b[k * 4 + c];
            }
        }
    }
    out
}

fn mat4_identity() -> [C64; 16] {
    let mut m = [C64::ZERO; 16];
    for i in 0..4 {
        m[i * 4 + i] = C64::ONE;
    }
    m
}

fn mat4_dagger(m: &[C64; 16]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r * 4 + c] = m[c * 4 + r].conj();
        }
    }
    out
}

/// Re-expresses a 4×4 written in `|a,b⟩` order in `|b,a⟩` order by
/// swapping the two index bits on rows and columns.
fn swap_bits_4(m: &[C64; 16]) -> [C64; 16] {
    const SIGMA: [usize; 4] = [0, 2, 1, 3];
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r * 4 + c] = m[SIGMA[r] * 4 + SIGMA[c]];
        }
    }
    out
}

/// `hi ⊗ lo` in the `|hi,lo⟩` basis (hi = bit 1 of the composite index).
fn kron2(hi: &[C64; 4], lo: &[C64; 4]) -> [C64; 16] {
    let mut out = [C64::ZERO; 16];
    for rh in 0..2 {
        for rl in 0..2 {
            for ch in 0..2 {
                for cl in 0..2 {
                    out[(rh * 2 + rl) * 4 + (ch * 2 + cl)] = hi[rh * 2 + ch] * lo[rl * 2 + cl];
                }
            }
        }
    }
    out
}

/// 2×2 entries of a single-qubit op (`deriv` substitutes the rotation's
/// derivative matrix; fixed gates never own a parameter).
fn single_entries(op: &Op, params: &[f64], deriv: bool) -> [C64; 4] {
    match op {
        Op::Fixed { gate, .. } => {
            debug_assert!(!deriv, "fixed gates own no free parameter");
            let m = gate.matrix();
            [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]
        }
        Op::Rotation { gate, param, .. } => {
            let theta = param.angle(params);
            if deriv {
                gate.derivative_entries(theta)
            } else {
                gate.entries(theta)
            }
        }
        _ => unreachable!("single-qubit segment holds only 1-qubit ops"),
    }
}

/// 4×4 entries of `op` embedded in the `|hi,lo⟩` basis of a pair segment.
fn pair_entries(op: &Op, hi: usize, params: &[f64], deriv: bool) -> [C64; 16] {
    match op {
        Op::Fixed { gate, qubits } if gate.arity() == 2 => {
            debug_assert!(!deriv);
            let m = gate.matrix();
            let mut e = [C64::ZERO; 16];
            for r in 0..4 {
                for c in 0..4 {
                    e[r * 4 + c] = m[(r, c)];
                }
            }
            if qubits[0] == hi {
                e
            } else {
                swap_bits_4(&e)
            }
        }
        Op::Fixed { qubits, .. } => {
            let e2 = single_entries(op, params, deriv);
            if qubits[0] == hi {
                kron2(&e2, &ID2)
            } else {
                kron2(&ID2, &e2)
            }
        }
        Op::Rotation { qubit, .. } => {
            let e2 = single_entries(op, params, deriv);
            if *qubit == hi {
                kron2(&e2, &ID2)
            } else {
                kron2(&ID2, &e2)
            }
        }
        Op::ControlledRotation {
            gate,
            control,
            param,
            ..
        } => {
            let theta = param.angle(params);
            let r = if deriv {
                gate.derivative_entries(theta)
            } else {
                gate.entries(theta)
            };
            // |control,target⟩ basis, control high: identity on the
            // control-0 block (zero for the derivative — the projector
            // annihilates it), R on the control-1 block.
            let mut e = [C64::ZERO; 16];
            if !deriv {
                e[0] = C64::ONE;
                e[5] = C64::ONE;
            }
            e[10] = r[0];
            e[11] = r[1];
            e[14] = r[2];
            e[15] = r[3];
            if *control == hi {
                e
            } else {
                swap_bits_4(&e)
            }
        }
        Op::TwoQubitRotation {
            gate, first, param, ..
        } => {
            let theta = param.angle(params);
            let e = if deriv {
                gate.derivative_entries(theta)
            } else {
                gate.entries(theta)
            };
            if *first == hi {
                e
            } else {
                swap_bits_4(&e)
            }
        }
    }
}

fn merged_single(ops: &[Op], params: &[f64], deriv_at: Option<usize>) -> [C64; 4] {
    let mut m = ID2;
    for (i, op) in ops.iter().enumerate() {
        let e = single_entries(op, params, deriv_at == Some(i));
        // The later op acts after the earlier ones: left-multiply.
        m = mat2_mul(&e, &m);
    }
    m
}

fn merged_pair(ops: &[Op], hi: usize, params: &[f64], deriv_at: Option<usize>) -> [C64; 16] {
    // Tensor fast path: when every op is single-qubit the pair factors as
    // `kron(hi-run, lo-run)` (disjoint wires commute), so the re-merge
    // costs two 2×2 products instead of a chain of 4×4 ones. This keeps
    // tensor-paired segments as cheap to re-merge per run as the two
    // `Single` segments they replaced.
    if ops.iter().all(|op| op_wires(op).1.is_none()) {
        let mut mh = ID2;
        let mut ml = ID2;
        for (i, op) in ops.iter().enumerate() {
            let e = single_entries(op, params, deriv_at == Some(i));
            if op_wires(op).0 == hi {
                mh = mat2_mul(&e, &mh);
            } else {
                ml = mat2_mul(&e, &ml);
            }
        }
        return kron2(&mh, &ml);
    }
    let mut m = mat4_identity();
    for (i, op) in ops.iter().enumerate() {
        let e = pair_entries(op, hi, params, deriv_at == Some(i));
        m = mat4_mul(&e, &m);
    }
    m
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

/// One fused execution unit of a [`CompiledCircuit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// An unmerged op, dispatched through the ordinary per-gate kernels.
    Raw(Op),
    /// A run of single-qubit ops on one wire, applied as one merged 2×2.
    Single {
        /// The wire the run acts on.
        qubit: usize,
        /// Constituent ops in application order.
        ops: Vec<Op>,
    },
    /// Ops confined to one qubit pair, applied as one merged 4×4 in the
    /// `|hi,lo⟩` basis.
    Pair {
        /// Higher qubit index (bit 1 of the composite basis index).
        hi: usize,
        /// Lower qubit index (bit 0).
        lo: usize,
        /// Constituent ops in application order.
        ops: Vec<Op>,
    },
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
            Segment::Single { ops, .. }
            | Segment::Pair { ops, .. }
            | Segment::Diagonal { ops, .. } => ops,
        }
    }

    /// `(position-in-segment, parameter-index)` of every free parameter.
    pub fn free_params(&self) -> Vec<(usize, usize)> {
        self.ops()
            .iter()
            .enumerate()
            .filter_map(|(k, op)| op.free_param().map(|i| (k, i)))
            .collect()
    }

    /// Applies the segment to `state`.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the underlying state operations.
    pub fn apply(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Segment::Raw(op) => op.apply(state, params),
            Segment::Single { qubit, ops } => {
                plateau_obs::counter!("sim.fuse.applications.single").inc();
                let m = merged_single(ops, params, None);
                state.apply_fused_single(*qubit, &m)
            }
            Segment::Pair { hi, lo, ops } => {
                plateau_obs::counter!("sim.fuse.applications.pair").inc();
                let m = merged_pair(ops, *hi, params, None);
                state.apply_fused_pair(*hi, *lo, &m)
            }
            Segment::Diagonal { diag, .. } => {
                plateau_obs::counter!("sim.fuse.applications.diagonal").inc();
                state.apply_diagonal(diag)
            }
        }
    }

    /// Applies the segment's inverse (dagger of the merged unitary).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors from the underlying state operations.
    pub fn apply_inverse(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        match self {
            Segment::Raw(op) => op.apply_inverse(state, params),
            Segment::Single { qubit, ops } => {
                plateau_obs::counter!("sim.fuse.applications.single").inc();
                let m = mat2_dagger(&merged_single(ops, params, None));
                state.apply_fused_single(*qubit, &m)
            }
            Segment::Pair { hi, lo, ops } => {
                plateau_obs::counter!("sim.fuse.applications.pair").inc();
                let m = mat4_dagger(&merged_pair(ops, *hi, params, None));
                state.apply_fused_pair(*hi, *lo, &m)
            }
            Segment::Diagonal { diag, .. } => {
                plateau_obs::counter!("sim.fuse.applications.diagonal").inc();
                state.apply_diagonal_conj(diag)
            }
        }
    }

    /// Applies `∂(segment unitary)/∂θ` where `θ` is owned by the op at
    /// `op_pos` (a position returned by [`Segment::free_params`]): the
    /// merged product with that op's derivative matrix substituted.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; `Raw` fixed ops reject like
    /// [`Op::apply_derivative`].
    pub fn apply_derivative(
        &self,
        state: &mut State,
        op_pos: usize,
        params: &[f64],
    ) -> Result<(), SimError> {
        match self {
            Segment::Raw(op) => op.apply_derivative(state, params),
            Segment::Single { qubit, ops } => {
                let m = merged_single(ops, params, Some(op_pos));
                state.apply_fused_single(*qubit, &m)
            }
            Segment::Pair { hi, lo, ops } => {
                let m = merged_pair(ops, *hi, params, Some(op_pos));
                state.apply_fused_pair(*hi, *lo, &m)
            }
            Segment::Diagonal { .. } => {
                unreachable!("diagonal superkernels are built from bound angles only")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------------

/// A circuit lowered into fused segments. See the module docs for the
/// compile-once/run-many contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    n_qubits: usize,
    n_params: usize,
    segments: Vec<Segment>,
    gates_in: usize,
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

    /// The fused segments in application order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Gates in the source circuit.
    pub fn gates_in(&self) -> usize {
        self.gates_in
    }

    /// Fused execution units (the compression ratio is
    /// `gates_in / gates_out`).
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

    /// Approximate heap footprint of the compiled form: per-segment op
    /// lists plus precomputed diagonals (`2^n` complex entries each, the
    /// dominant term). Used for the `sim.fuse.compiled_bytes` gauge.
    pub fn approx_bytes(&self) -> usize {
        let segs: usize = self
            .segments
            .iter()
            .map(|s| {
                let ops = s.ops().len() * std::mem::size_of::<Op>();
                match s {
                    Segment::Diagonal { diag, .. } => {
                        ops + diag.len() * std::mem::size_of::<C64>()
                    }
                    _ => ops,
                }
            })
            .sum();
        segs + self.segments.len() * std::mem::size_of::<Segment>()
    }

    /// Whether compilation was a no-op: every segment is a raw op, in
    /// source order.
    pub fn is_identity_transform(&self) -> bool {
        self.segments.iter().all(|s| matches!(s, Segment::Raw(_)))
    }

    /// The constituent ops of every segment, concatenated in application
    /// order (a unitary-equivalent reordering of the source op list).
    pub fn flattened_ops(&self) -> Vec<Op> {
        self.segments.iter().flat_map(|s| s.ops().iter().cloned()).collect()
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

    /// Runs the compiled circuit on `|0…0⟩`.
    ///
    /// Exploits the fixed input: a leading prefix of `Single` runs on
    /// distinct wires maps `|0…0⟩` to a product state, which is built
    /// directly by iterative doubling (two multiplies per amplitude in
    /// total) instead of one full-state sweep per wire. For the paper's
    /// ansatz this absorbs the entire first rotation layer. The general
    /// [`Self::run_on`] path is untouched — arbitrary input states get
    /// the ordinary segment sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch.
    pub fn run(&self, params: &[f64]) -> Result<State, SimError> {
        self.check_params(params)?;
        let k = product_prefix_len(&self.segments);
        if k < 2 {
            let mut state = State::zero(self.n_qubits);
            self.run_on(&mut state, params)?;
            return Ok(state);
        }
        let mut amps = vec![C64::ZERO; 1usize << self.n_qubits];
        self.product_prologue(&mut amps, params, k);
        let mut state = State::from_amplitudes_unnormalized(amps)?;
        for seg in &self.segments[k..] {
            seg.apply(&mut state, params)?;
        }
        Ok(state)
    }

    /// Number of leading segments the product-state prologue absorbs when
    /// a run starts from `|0…0⟩` (`0` when there is no prologue).
    pub fn prologue_len(&self) -> usize {
        match product_prefix_len(&self.segments) {
            k if k < 2 => 0,
            k => k,
        }
    }

    /// Runs the first `end` segments on `|0…0⟩` **into** an existing
    /// state, resetting it in place first — with `end` = every segment,
    /// [`CompiledCircuit::run`] without the allocation, including the same
    /// product-state prologue (iterative doubling works in place on the
    /// zeroed buffer), so the amplitudes are identical to
    /// [`CompiledCircuit::run`] for the same parameters.
    ///
    /// For `end == 0` or `end ≥ prologue_len()` the state holds exactly
    /// the bits a full run holds after its first `end` segments, so
    /// applying `segments()[end..]` afterwards reproduces the full run —
    /// the prefix a parameter-shift sweep shares between a parameter's
    /// shifted evaluations.
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
        if state.n_qubits() != self.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: 1 << self.n_qubits,
                found: state.dim(),
            });
        }
        state.reset_zero();
        let k = self.prologue_len();
        let start = if k > 0 && end >= k {
            self.product_prologue(state.amps_mut(), params, k);
            k
        } else {
            0
        };
        for seg in &self.segments[start..end] {
            seg.apply(state, params)?;
        }
        Ok(())
    }

    /// Writes the product state of the leading `k` distinct-wire `Single`
    /// segments into `amps`, which must be all-zero on entry. Shared by
    /// [`CompiledCircuit::run`] and [`CompiledCircuit::run_prefix_into`]
    /// so the two paths are arithmetically identical.
    fn product_prologue(&self, amps: &mut [C64], params: &[f64], k: usize) {
        plateau_obs::counter!("sim.fuse.applications.prologue").inc();
        amps[0] = C64::ONE;
        let mut len = 1usize;
        for wire in 0..self.n_qubits {
            // The leading run on this wire, found by a scan of the (at most
            // n) prologue segments rather than a per-run lookup table, so
            // a run from |0…0⟩ allocates nothing here.
            let run = self.segments[..k].iter().find_map(|seg| match seg {
                Segment::Single { qubit, ops } => (*qubit == wire).then_some(ops),
                _ => unreachable!("product prefix holds only Single segments"),
            });
            if let Some(ops) = run {
                // |0⟩-column of the run's merged 2×2.
                let m = merged_single(ops, params, None);
                let (v0, v1) = (m[0], m[2]);
                for i in 0..len {
                    let a = amps[i];
                    amps[i] = a * v0;
                    amps[i + len] = a * v1;
                }
            }
            // Wires without a leading run stay in |0⟩: the upper half is
            // already zero and the lower half is unscaled.
            len <<= 1;
        }
    }

    /// Runs the compiled circuit on an existing state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongParamCount`] on a parameter mismatch or
    /// [`SimError::DimensionMismatch`] if the state width differs.
    pub fn run_on(&self, state: &mut State, params: &[f64]) -> Result<(), SimError> {
        self.check_params(params)?;
        if state.n_qubits() != self.n_qubits {
            return Err(SimError::DimensionMismatch {
                expected: 1 << self.n_qubits,
                found: state.dim(),
            });
        }
        for seg in &self.segments {
            seg.apply(state, params)?;
        }
        Ok(())
    }
}

/// One open frontier group during span fusion.
struct Group {
    wires: [usize; 2],
    n_wires: usize,
    ops: Vec<Op>,
    first: usize,
}

impl Group {
    fn contains(&self, q: usize) -> bool {
        self.wires[..self.n_wires].contains(&q)
    }

    fn is_pair(&self, a: usize, b: usize) -> bool {
        self.n_wires == 2 && self.contains(a) && self.contains(b)
    }
}

/// `(wire, second-wire)` of an op.
fn op_wires(op: &Op) -> (usize, Option<usize>) {
    match op {
        Op::Fixed { gate, qubits } => {
            if gate.arity() == 1 {
                (qubits[0], None)
            } else {
                (qubits[0], Some(qubits[1]))
            }
        }
        Op::Rotation { qubit, .. } => (*qubit, None),
        Op::ControlledRotation { control, target, .. } => (*control, Some(*target)),
        Op::TwoQubitRotation { first, second, .. } => (*first, Some(*second)),
    }
}

/// Splits a pair group back into per-wire single runs and raw two-qubit
/// ops; returns the plan and its sweep cost.
fn split_pair_group(ops: &[Op]) -> (f64, Vec<Segment>) {
    let mut plan = Vec::new();
    let mut cost = 0.0;
    // Per-wire pending runs, kept in order of first appearance.
    let mut runs: Vec<(usize, Vec<Op>)> = Vec::new();
    let flush = |runs: &mut Vec<(usize, Vec<Op>)>, plan: &mut Vec<Segment>, cost: &mut f64| {
        for (qubit, run) in runs.drain(..) {
            if run.len() >= 2 {
                *cost += SINGLE_BLOCK_COST;
                plan.push(Segment::Single { qubit, ops: run });
            } else {
                for op in run {
                    *cost += op_cost(&op);
                    plan.push(Segment::Raw(op));
                }
            }
        }
    };
    for op in ops {
        match op_wires(op) {
            (q, None) => {
                if let Some((_, run)) = runs.iter_mut().find(|(w, _)| *w == q) {
                    run.push(op.clone());
                } else {
                    runs.push((q, vec![op.clone()]));
                }
            }
            _ => {
                flush(&mut runs, &mut plan, &mut cost);
                cost += op_cost(op);
                plan.push(Segment::Raw(op.clone()));
            }
        }
    }
    flush(&mut runs, &mut plan, &mut cost);
    (cost, plan)
}

/// Emits one closed group through the cost model.
fn emit_group(segments: &mut Vec<Segment>, group: Group) {
    let Group {
        wires, n_wires, ops, ..
    } = group;
    if ops.len() == 1 {
        let mut ops = ops;
        segments.push(Segment::Raw(ops.pop().expect("one op")));
        return;
    }
    if n_wires == 1 {
        segments.push(Segment::Single {
            qubit: wires[0],
            ops,
        });
        return;
    }
    let (split_cost, split_plan) = split_pair_group(&ops);
    if PAIR_BLOCK_COST < split_cost {
        let (hi, lo) = (wires[0].max(wires[1]), wires[0].min(wires[1]));
        segments.push(Segment::Pair { hi, lo, ops });
    } else {
        segments.extend(split_plan);
    }
}

/// Length of the leading run of `Single` segments on pairwise-distinct
/// wires — the prefix [`CompiledCircuit::run`] absorbs into a direct
/// product-state build when starting from `|0…0⟩`.
fn product_prefix_len(segments: &[Segment]) -> usize {
    let mut claimed: u64 = 0;
    let mut k = 0;
    for seg in segments {
        if let Segment::Single { qubit, .. } = seg {
            let bit = 1u64 << qubit;
            if claimed & bit == 0 {
                claimed |= bit;
                k += 1;
                continue;
            }
        }
        break;
    }
    k
}

/// Tensor-pairs adjacent `Single` segments on distinct wires into one
/// `Pair` sweep: a 4×4 block costs the same complex multiplies per
/// amplitude as the two 2×2 blocks it replaces (4 either way) but walks
/// the state once instead of twice, halving loads and stores. That trade
/// only pays once sweeps are memory-bound — cache-resident states are
/// ALU-bound and the 4×4's extra adds lose (measured ~10% slower at 10
/// qubits, ~20% faster at 16–20) — so [`compile`] runs this pass only
/// for registers wider than [`SUPERKERNEL_MAX_QUBITS`]. The leading
/// product prefix is left alone — [`CompiledCircuit::run`] absorbs it
/// far more cheaply than any sweep. The merged matrix stays a cheap kron
/// of the two per-wire runs (see [`merged_pair`]).
fn pair_adjacent_singles(segments: Vec<Segment>) -> Vec<Segment> {
    let keep = product_prefix_len(&segments);
    let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
    for (pos, seg) in segments.into_iter().enumerate() {
        if pos < keep {
            out.push(seg);
            continue;
        }
        let pairable = out.len() > keep
            && matches!(
                (out.last(), &seg),
                (
                    Some(Segment::Single { qubit: qa, .. }),
                    Segment::Single { qubit: qb, .. },
                ) if qa != qb
            );
        if pairable {
            let Some(Segment::Single { qubit: qa, ops: mut oa }) = out.pop() else {
                unreachable!("pairable requires a trailing Single");
            };
            let Segment::Single { qubit: qb, ops: ob } = seg else {
                unreachable!("pairable requires an incoming Single");
            };
            oa.extend(ob);
            out.push(Segment::Pair {
                hi: qa.max(qb),
                lo: qa.min(qb),
                ops: oa,
            });
        } else {
            out.push(seg);
        }
    }
    out
}

/// Frontier-fuses one span of non-superkernel ops into `segments`.
fn fuse_span(segments: &mut Vec<Segment>, span: Vec<Op>) {
    let mut open: Vec<Group> = Vec::new();
    let mut closed: Vec<Group> = Vec::new();
    for (pos, op) in span.into_iter().enumerate() {
        match op_wires(&op) {
            (q, None) => {
                if let Some(g) = open.iter_mut().find(|g| g.contains(q)) {
                    g.ops.push(op);
                } else {
                    open.push(Group {
                        wires: [q, 0],
                        n_wires: 1,
                        ops: vec![op],
                        first: pos,
                    });
                }
            }
            (a, Some(b)) => {
                if let Some(g) = open.iter_mut().find(|g| g.is_pair(a, b)) {
                    g.ops.push(op);
                } else {
                    // Close every open group touching either wire, then
                    // open a fresh pair group.
                    let (conflicting, keep): (Vec<Group>, Vec<Group>) =
                        open.drain(..).partition(|g| g.contains(a) || g.contains(b));
                    open = keep;
                    closed.extend(conflicting);
                    open.push(Group {
                        wires: [a, b],
                        n_wires: 2,
                        ops: vec![op],
                        first: pos,
                    });
                }
            }
        }
    }
    closed.extend(open);
    // Coexisting groups act on disjoint wires, so emitting in first-op
    // order is a commuting (semantics-preserving) reordering.
    closed.sort_by_key(|g| g.first);
    for g in closed {
        emit_group(segments, g);
    }
}

/// Compiles a circuit into fused segments. Pure and deterministic: the
/// same circuit always yields the same segment list.
///
/// Emits the `sim.fuse.gates_in`, `sim.fuse.gates_out`, and
/// `sim.fuse.superkernels` counters so the compression ratio is
/// observable.
pub fn compile(circuit: &Circuit) -> CompiledCircuit {
    let n = circuit.n_qubits();
    let ops = circuit.ops();
    let mut segments = Vec::new();
    let mut span: Vec<Op> = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        if n >= 1 && n <= SUPERKERNEL_MAX_QUBITS && is_static_diagonal(&ops[i]) {
            let mut j = i + 1;
            while j < ops.len() && is_static_diagonal(&ops[j]) {
                j += 1;
            }
            let run = &ops[i..j];
            let run_cost: f64 = run.iter().map(op_cost).sum();
            if run.len() >= 2 && run_cost > DIAG_SWEEP_COST {
                fuse_span(&mut segments, std::mem::take(&mut span));
                let mut diag = vec![C64::ONE; 1usize << n];
                for op in run {
                    fold_diagonal(&mut diag, op);
                }
                segments.push(Segment::Diagonal {
                    diag,
                    ops: run.to_vec(),
                });
                i = j;
                continue;
            }
        }
        span.push(ops[i].clone());
        i += 1;
    }
    fuse_span(&mut segments, span);
    // Sweep-halving only wins where sweeps are memory-bound; see
    // `pair_adjacent_singles`.
    let segments = if n > SUPERKERNEL_MAX_QUBITS {
        pair_adjacent_singles(segments)
    } else {
        segments
    };

    let compiled = CompiledCircuit {
        n_qubits: n,
        n_params: circuit.n_params(),
        segments,
        gates_in: ops.len(),
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
    use crate::gate::TwoQubitRotationGate;
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

    #[test]
    fn paper_ansatz_compresses_to_per_wire_blocks_and_layer_superkernels() {
        let n = 10;
        let layers = 5;
        let c = paper_circuit(n, layers);
        let compiled = compile(&c);
        assert_eq!(compiled.gates_in(), layers * (2 * n + n - 1));
        // Per layer: one merged RX·RY block per wire + one CZ-chain
        // diagonal superkernel.
        assert_eq!(compiled.gates_out(), layers * (n + 1));
        assert_eq!(compiled.superkernels(), layers);

        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.1 + 0.03 * i as f64).collect();
        let raw = c.run(&params).unwrap();
        let fused = compiled.run(&params).unwrap();
        for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn wide_registers_tensor_pair_post_prefix_single_runs() {
        // Wider than SUPERKERNEL_MAX_QUBITS so the pairing pass is live.
        let n = 14;
        let mut c = Circuit::new(n).unwrap();
        for q in 0..n {
            c.rx(q).unwrap().ry(q).unwrap();
        }
        // Close the wire-0 and wire-3 frontiers (each CZ pair group is
        // itself closed by the next CZ sharing a wire, so the trailing
        // rotation runs open fresh single groups instead of being
        // absorbed into an open pair block).
        c.cz(0, 1).unwrap();
        c.cz(1, 2).unwrap();
        c.cz(3, 4).unwrap();
        c.cz(4, 5).unwrap();
        c.rx(0).unwrap().ry(0).unwrap();
        c.rx(3).unwrap().ry(3).unwrap();
        let compiled = compile(&c);
        // The first rotation layer is the product prefix (one Single per
        // wire, protected from pairing), the CZs stay raw at this width,
        // and the two trailing runs tensor-pair into one 4×4 sweep.
        assert_eq!(compiled.gates_out(), n + 5);
        assert!(compiled.segments()[..n]
            .iter()
            .all(|s| matches!(s, Segment::Single { .. })));
        assert!(compiled.segments()[n..n + 4]
            .iter()
            .all(|s| matches!(s, Segment::Raw(_))));
        let pair = &compiled.segments()[n + 4];
        assert!(matches!(pair, Segment::Pair { hi: 3, lo: 0, .. }));

        // Full-state check: the paired + prologue run must match the
        // gate-by-gate run from |0…0⟩.
        let params: Vec<f64> = (0..c.n_params()).map(|i| 0.4 + 0.031 * i as f64).collect();
        let raw = c.run(&params).unwrap();
        let fused = compiled.run(&params).unwrap();
        for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }

        // The kron fast path must also produce per-op derivatives: check
        // every free parameter of the paired segment against a manual
        // gate-by-gate derivative chain from the same input state.
        for (op_pos, _) in pair.free_params() {
            let phi = State::zero(n);
            let mut via_segment = phi.clone();
            pair.apply_derivative(&mut via_segment, op_pos, &params).unwrap();
            let mut via_op = phi.clone();
            let ops = pair.ops();
            for op in &ops[..op_pos] {
                op.apply(&mut via_op, &params).unwrap();
            }
            ops[op_pos].apply_derivative(&mut via_op, &params).unwrap();
            for op in &ops[op_pos + 1..] {
                op.apply(&mut via_op, &params).unwrap();
            }
            for (a, b) in via_segment.amplitudes().iter().zip(via_op.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-12), "derivative drift: {a} vs {b}");
            }
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
                let params: Vec<f64> =
                    (0..c.n_params()).map(|_| rng.gen_range(-3.0..3.0)).collect();
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

    /// Property: fusing any random circuit preserves the full unitary to
    /// 1e-12 (compares against the independent `circuit_unitary` oracle).
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
                            c.push_two_qubit_rotation(TwoQubitRotationGate::Rzz, q, p).unwrap()
                        }
                        _ => c.ry(q).unwrap(),
                    };
                }
                let params: Vec<f64> =
                    (0..c.n_params()).map(|_| rng.gen_range(-3.0..3.0)).collect();
                (c, params)
            },
            |(c, params)| {
                let compiled = compile(c);
                prop_assert_eq!(compiled.flattened_ops().len(), c.gate_count());
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
            c.push_rotation_const(RotationGate::Phase, n - 1, -1.1).unwrap();
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

    /// Property: a circuit with zero adjacent-mergeable gates compiles to
    /// the identity transform — all-raw segments, same op list.
    #[test]
    fn unmergeable_circuits_compile_to_the_identity_transform() {
        forall(
            0x1d37,
            DEFAULT_CASES,
            |rng| {
                let n = rng.gen_range(4..9usize);
                let mut c = Circuit::new(n).unwrap();
                // One non-diagonal single-qubit op per wire, each wire
                // distinct: nothing shares a frontier, nothing is an
                // adjacent diagonal pair.
                let with_cz = rng.gen_range(0..2u32) == 0 && n >= 6;
                let single_wires = if with_cz { n - 2 } else { n };
                for q in 0..single_wires {
                    match rng.gen_range(0..4u32) {
                        0 => c.h(q).unwrap(),
                        1 => c.x(q).unwrap(),
                        2 => c.rx(q).unwrap(),
                        _ => c.ry(q).unwrap(),
                    };
                }
                if with_cz {
                    // A lone CZ on two otherwise untouched wires: a
                    // one-op pair group and an isolated diagonal op.
                    c.cz(n - 2, n - 1).unwrap();
                }
                c
            },
            |c| {
                let compiled = compile(c);
                prop_assert!(compiled.is_identity_transform());
                prop_assert_eq!(compiled.gates_out(), c.gate_count());
                prop_assert_eq!(&compiled.flattened_ops(), c.ops());
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
            for (x, y) in raw.amplitudes().iter().zip(fused.amplitudes()) {
                assert!(x.approx_eq(*y, 1e-12), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn pair_blocks_absorb_two_qubit_rotations() {
        // rxx(0,1) · ryy(0,1): two dense 4×4 sweeps fuse into one.
        let mut c = Circuit::new(2).unwrap();
        c.push_two_qubit_rotation(TwoQubitRotationGate::Rxx, 0, 1).unwrap();
        c.push_two_qubit_rotation(TwoQubitRotationGate::Ryy, 1, 0).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.gates_out(), 1);
        assert!(matches!(compiled.segments()[0], Segment::Pair { hi: 1, lo: 0, .. }));
        let params = [0.9, -0.4];
        let raw = c.run(&params).unwrap();
        let fused = compiled.run(&params).unwrap();
        for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn controlled_rotation_merges_and_differentiates_inside_a_pair_block() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap().h(1).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 1).unwrap();
        c.push_two_qubit_rotation(TwoQubitRotationGate::Rxx, 0, 1).unwrap();
        let compiled = compile(&c);
        let params = [0.7, 1.3];
        let raw = c.run(&params).unwrap();
        let fused = compiled.run(&params).unwrap();
        for (a, b) in raw.amplitudes().iter().zip(fused.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
        // The segment's derivative equals the op-level derivative path,
        // both applied to the state entering the segment.
        let pair_at = compiled
            .segments()
            .iter()
            .position(|s| matches!(s, Segment::Pair { .. }))
            .expect("pair segment");
        let mut phi = State::zero(2);
        for seg in &compiled.segments()[..pair_at] {
            seg.apply(&mut phi, &params).unwrap();
        }
        let pair = &compiled.segments()[pair_at];
        for (op_pos, idx) in pair.free_params() {
            let mut via_segment = phi.clone();
            pair.apply_derivative(&mut via_segment, op_pos, &params).unwrap();
            // Chain rule by hand: apply the ops before `op_pos`, the op
            // derivative, then the tail.
            let mut via_op = phi.clone();
            let ops = pair.ops();
            for op in &ops[..op_pos] {
                op.apply(&mut via_op, &params).unwrap();
            }
            ops[op_pos].apply_derivative(&mut via_op, &params).unwrap();
            for op in &ops[op_pos + 1..] {
                op.apply(&mut via_op, &params).unwrap();
            }
            for (a, b) in via_segment.amplitudes().iter().zip(via_op.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-10), "param {idx}: {a} vs {b}");
            }
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
        let zero = State::zero(4);
        for (a, b) in s.amplitudes().iter().zip(zero.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn run_on_validates_params_and_width() {
        let mut c = Circuit::new(2).unwrap();
        c.rx(0).unwrap();
        let compiled = compile(&c);
        assert!(matches!(
            compiled.run(&[]),
            Err(SimError::WrongParamCount { expected: 1, found: 0 })
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
        // diagonal multiply, so the cost model leaves them alone.
        let mut c = Circuit::new(4).unwrap();
        c.cz(0, 1).unwrap().cz(2, 3).unwrap();
        let compiled = compile(&c);
        assert_eq!(compiled.superkernels(), 0);
        assert!(compiled.is_identity_transform());
    }

    #[test]
    fn big_registers_skip_superkernels_but_still_merge_wires() {
        let c = paper_circuit(SUPERKERNEL_MAX_QUBITS + 1, 1);
        let compiled = compile(&c);
        assert_eq!(compiled.superkernels(), 0);
        // RX·RY still merges per wire; the CZ chain stays raw.
        assert!(compiled
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Single { .. })));
    }
}
